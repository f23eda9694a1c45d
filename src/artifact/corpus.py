"""Fixed example algebras and seeded random corpora.

All randomness comes from random.Random (Mersenne Twister) so corpora
reproduce across platforms from the seed alone.  The draw order is part of
the contract: first the strategy index, then shape parameters, then scalar
entries in row-major index order ((i, j, k) for tensors, (row, col) for
matrices), then the change-of-basis matrix, redrawn whole until invertible.
Scalars over GF(p) are rng.randrange(p); over Q they are small integers
rng.randrange(-3, 4).

One routine, _draw_tensor, draws every random structure tensor, as an
integer array: it fills a support vs x vs -> ks in (i, j, k) order, and
with symmetry "sym"/"antisym" draws only j >= i / j > i and mirrors the
rest, so a symmetric draw consumes the entries of the upper triangle in
row-major order.  A draw becomes field scalars only once it is kept.  One
strategy routine, _sample, serves every category with a row of the
_SAMPLERS table: the symmetry of its two-step nilpotent tensors, the
largest dim it also samples by rejection (2, or 3 for Lie, whose rejection
draw is antisymmetric), and its seed algebras.  Rejection sampling is
uniform over its draw; the two-step tensors and the conjugated seeds
satisfy the identities by construction.  "alternative" re-labels an
associative sample, "module" is the zero algebra and "raw" is one
unchecked full draw.  Every sample but "module" and "raw" is re-verified
against its category's identity suite before being returned, and _sample
returns that passed Report beside it, which generate_atlas hands to
actor_pipeline, so each atlas instance runs its suite once.

Rejection draws are made _BATCH at a time, as one (K, n, n, n) stack that
one algebra.suite_flags call checks, the suite's rows summed over the
whole stack by the suites' own _np_sum.  The first passing draw is kept:
rng is rewound to the batch's start and the draws up to that one are
drawn again, so the kept tensor and the stream are exactly those of
drawing and checking one tensor at a time.  _ATTEMPTS bounds the draws,
not the batches: a strategy that finds no tensor raises CapError with rng
after exactly _ATTEMPTS draws.
"""

import functools
import json
import random
from typing import NamedTuple, Optional

import numpy as np

from .algebra import (Algebra, InputError, identity_suite, make_algebra,
                      make_algebra_from_products, suite_flags)
from .actions import ActionPair, make_action
from .constructions import ConstructionError
from .existence import actor_pipeline
from .fields import QQ, Field
from .groups import CapError
from .linalg import Matrix, exact_ints, magnitude, rung, scalar_tuples
from .reporting import Report

_ATTEMPTS = 50000  # draws per rejection loop; a Q rejection sample can use them all


# ---------------------------------------------------------------------------
# fixed examples


def _names(n):
    return tuple(f"e{i}" for i in range(n))


def sl2(field: Field = QQ) -> Algebra:
    """Traceless 2x2 matrices: [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    two = field.from_int(2)
    z, o = field.zero, field.one
    prods = {
        (0, 1): (z, z, o), (1, 0): (z, z, field.neg(o)),
        (2, 0): (two, z, z), (0, 2): (field.neg(two), z, z),
        (2, 1): (z, field.neg(two), z), (1, 2): (z, two, z),
    }
    return make_algebra_from_products(field, ("e", "f", "h"), prods, "lie")


def heisenberg(field: Field = QQ) -> Algebra:
    """Three-dimensional nilpotent Lie algebra: [x,y]=z."""
    z, o = field.zero, field.one
    prods = {(0, 1): (z, z, o), (1, 0): (z, z, field.neg(o))}
    return make_algebra_from_products(field, ("x", "y", "z"), prods, "lie")


def abelian(field: Field, n: int, category: str = "lie") -> Algebra:
    zero = tuple(field.zero for _ in range(n))
    tensor = tuple(tuple(zero for _ in range(n)) for _ in range(n))
    return make_algebra(field, _names(n), tensor, category)


def zero_algebra(field: Field, n: int, category: str = "module") -> Algebra:
    return abelian(field, n, category)


def a5_leibniz(field: Field = QQ) -> Algebra:
    """Two-dimensional non-Lie Leibniz algebra: b*b = a, all else zero."""
    prods = {(1, 1): (field.one, field.zero)}
    return make_algebra_from_products(field, ("a", "b"), prods, "leibniz")


def m2_rationals() -> Algebra:
    """Full 2x2 matrix algebra over Q, basis E11, E12, E21, E22."""
    f = QQ
    pos = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    prods = {}
    for (a, b), i in pos.items():
        for (c, d), j in pos.items():
            if b == c:
                v = [f.zero] * 4
                v[pos[(a, d)]] = f.one
                prods[(i, j)] = tuple(v)
    return make_algebra_from_products(
        f, ("E11", "E12", "E21", "E22"), prods, "associative")


def truncated_poly(field: Field, d: int, category: str = "associative") -> Algebra:
    """k[x]/(x^d) with basis 1, x, ..., x^(d-1)."""
    prods = {}
    for i in range(d):
        for j in range(d):
            if i + j < d:
                v = [field.zero] * d
                v[i + j] = field.one
                prods[(i, j)] = tuple(v)
    names = tuple("1" if i == 0 else f"x{i}" for i in range(d))
    return make_algebra_from_products(field, names, prods, category)


def dual_numbers(field: Field = QQ) -> Algebra:
    """k[x]/(x^2): the algebra of dual numbers."""
    return truncated_poly(field, 2)


def diagonal_algebra(field: Field, d: int, category: str = "associative") -> Algebra:
    """k^d with componentwise product: e_i e_j = delta_ij e_i."""
    prods = {}
    for i in range(d):
        v = [field.zero] * d
        v[i] = field.one
        prods[(i, i)] = tuple(v)
    return make_algebra_from_products(field, _names(d), prods, category)


def strict_upper3(field: Field = QQ) -> Algebra:
    """Strictly upper triangular 3x3 matrices: e0*e2 = e1, all else zero."""
    prods = {(0, 2): (field.zero, field.one, field.zero)}
    return make_algebra_from_products(field, ("E12", "E13", "E23"), prods,
                                      "associative")


# ---------------------------------------------------------------------------
# scalar, tensor and basis-change draws


def _int_range(field) -> tuple:
    """The arguments of rng.randrange that draw one scalar's integer."""
    return (field.p,) if field.p else (-3, 4)


def _rand_scalar(rng, field):
    return field.from_int(rng.randrange(*_int_range(field)))


def _rand_invertible(rng, field, n) -> tuple[Matrix, Matrix]:
    """A random invertible P, its n^2 integers drawn in row-major order as
    _rand_scalar draws them and redrawn whole until invertible, with the
    RREF of [q | I], q = den P the integers of P, that tests it: P is
    invertible exactly when the pivots are range(n), and then the RREF is
    [I | q^-1], which _conjugate reads P^-1 off."""
    draw = functools.partial(rng.randrange, *_int_range(field))
    for _ in range(_ATTEMPTS):
        m = Matrix.from_ints(field, np.array([draw() for _ in range(n * n)],
                                             _draw_dtype(field)).reshape(n, n))
        red = _inverse_rref(m)
        if red.pivots == tuple(range(n)):
            return m, red
    raise RuntimeError("could not draw an invertible matrix")


def _inverse_rref(p: Matrix) -> Matrix:
    """The RREF of [q | I], q = den P the integers of P."""
    q = p.ints
    return Matrix.from_ints(p.field, np.hstack([q, np.eye(len(q), dtype=np.int64)])).rref()


def _conjugate(a: Algebra, p: Matrix, red: Matrix) -> Algebra:
    """Transport a's tensor along the basis whose columns are p.  The
    products of the new basis vectors, c(P e_i, P e_j), are one exact
    contraction of a.integer_tensor with P's integers, on the rung of its
    bound, and their coordinates in the new basis are P^-1 times them, one
    more integer product on the rung of its bound.  With q = mu P the
    integers of P over its den mu, red, the RREF of [q | I]
    (_inverse_rref), is [I | w / den], w / den = q^-1 = P^-1 / mu; the
    contraction is v = lam mu^2 c(P e_i, P e_j), so w v = lam mu den P^-1
    c(P e_i, P e_j)."""
    f, n = a.field, a.dim
    lam, c = a.integer_tensor
    mu, q = p.den, p.ints
    dtype = rung(n * n * magnitude(q) ** 2 * magnitude(c))
    c, qd = exact_ints(c).astype(dtype), q.astype(dtype)
    v = qd.T @ (qd.T @ c.reshape(n, n * n)).reshape(n, n, n)  # [i, j, k]
    v = exact_ints(v, f.p).reshape(n * n, n)
    if red.pivots != tuple(range(n)):
        raise RuntimeError("change of basis is not invertible")
    w = red.ints[:, n:]  # den q^-1
    dtype = rung(n * magnitude(v) * magnitude(w))
    coords = exact_ints(v.astype(dtype) @ w.T.astype(dtype), f.p).reshape(n, n, n)
    tensor = scalar_tuples(f, lam * mu * red.den, coords)
    return make_algebra(f, a.basis, tensor, a.category)


def _embed_block(field, n, block: Algebra) -> tuple:
    """Place block's tensor in the leading coordinates of a dim-n tensor."""
    b = block.dim
    tensor = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(b):
        for j in range(b):
            for k in range(b):
                tensor[i][j][k] = block.tensor[i][j][k]
    return tuple(tuple(tuple(r) for r in row) for row in tensor)


def _draw_tensor(rng, field, n, vs, ks, symmetry=None, count=1) -> np.ndarray:
    """count random dim-n tensors supported on vs x vs -> ks, drawn one
    after another, each in (i, j, k) order, as a (count, n, n, n) integer
    array, each entry drawn as _rand_scalar draws it.  symmetry
    "sym"/"antisym" draws only j >= i / j > i and mirrors the rest as
    c[j][i] = +/- c[i][j], not reduced mod p; every other entry is zero.
    _scalars makes a kept draw field scalars."""
    draw = functools.partial(rng.randrange, *_int_range(field))
    sign = {"sym": 1, "antisym": -1}.get(symmetry)
    cells = [((i * n + j) * n + k, (j * n + i) * n + k) for i in vs for j in vs
             if not (symmetry and j < i or symmetry == "antisym" and j == i) for k in ks]
    size = n ** 3
    flat = [0] * (count * size)
    for base in range(0, count * size, size):
        for at, mirror in cells:
            x = flat[base + at] = draw()
            if sign:
                flat[base + mirror] = sign * x
    return np.array(flat, _draw_dtype(field)).reshape(count, n, n, n)


def _draw_dtype(field):
    """The dtype of drawn integers: int64 holds every entry and its negation
    while p <= 2^63."""
    return object if (field.p or 0) > 2 ** 63 else np.int64


def _scalars(field, ints: np.ndarray) -> tuple:
    """A drawn integer tensor as nested tuples of field scalars."""
    return scalar_tuples(field, 1, exact_ints(ints, field.p))


# ---------------------------------------------------------------------------
# category samplers


class _Sampler(NamedTuple):
    twostep: Optional[str]  # symmetry of the two-step nilpotent tensor
    reject_upto: int  # largest dim also sampled by rejection
    reject: Optional[str]  # symmetry of the rejection draw
    families: tuple  # seeds in every dim n, built as family(field, n)
    blocks: tuple  # (block(field), lowest n, highest n or None) seeds


_SAMPLERS = {
    "leibniz": _Sampler(None, 2, None, (zero_algebra,),
                        ((a5_leibniz, 2, None), (sl2, 3, 3), (heisenberg, 3, 3))),
    "associative": _Sampler(None, 2, None,
                            (zero_algebra, diagonal_algebra, truncated_poly),
                            ((strict_upper3, 3, 3),)),
    "commutative": _Sampler("sym", 2, None,
                            (zero_algebra, diagonal_algebra, truncated_poly), ()),
    # random tensors are almost never anticommutative, so Lie rejection draws
    # antisymmetric ones and affords one dim more
    "lie": _Sampler("antisym", 3, "antisym", (zero_algebra,),
                    ((sl2, 3, 3), (heisenberg, 3, 3))),
}


# rejection draws checked at once by one algebra.suite_flags call.  Per Lie
# dim-3 rejection sample, mean over 30 seeds, best of 3-7 in process, four
# runs: over Q 8 draws a batch 3.4-4.2 ms, 16 2.5-3.8, 32 2.1-3.1, 64 2.0-2.6,
# 128 2.2-3.0, against 30-37 ms one draw at a time; over GF(5) 0.84-1.19,
# 0.71-0.90, 0.66-1.03, 0.86-1.19, 1.11-1.65, against 4.8-6.7 ms (Intel Xeon,
# numpy 2.4, a shared 2-core host).  32 and 64 tie within the host's spread
_BATCH = 32


def _finish(rng, field, names, tensor, category, conjugate=True) -> tuple[Algebra, Report]:
    """The algebra, conjugated by a random change of basis unless told not
    to, and its passed Report; a failing suite is a bug here."""
    a = make_algebra(field, names, tensor, category)
    if conjugate and a.dim > 0:
        a = _conjugate(a, *_rand_invertible(rng, field, a.dim))
    rep = identity_suite(a)
    if not rep.passed:
        raise RuntimeError(f"sampler produced an invalid {category} algebra: "
                           f"{rep.label} at {rep.witness}")
    return a, rep


def _reject(rng, field, n, category, symmetry) -> np.ndarray:
    """The first whole-tensor draw that satisfies the category's suite, with
    rng left just after it, as drawing and checking one tensor at a time
    leaves it.  The draws come _BATCH at a time, checked by one suite_flags
    call; rng is then rewound to the batch's start and the draws up to the
    first passing one are drawn again.  Past _ATTEMPTS draws, CapError."""
    for done in range(0, _ATTEMPTS, _BATCH):
        state = rng.getstate()
        count = min(_BATCH, _ATTEMPTS - done)
        passed = suite_flags(_draw_tensor(rng, field, n, range(n), range(n), symmetry, count),
                             category, field.p)
        if passed.any():
            rng.setstate(state)
            return _draw_tensor(rng, field, n, range(n), range(n), symmetry,
                                int(passed.argmax()) + 1)[-1]
    raise CapError(f"rejection sampling found no {category} tensor "
                   f"in {_ATTEMPTS} draws at dim {n}")


def _sample(rng, field, n, category) -> tuple[Algebra, Optional[Report]]:
    """sample_algebra's algebra and the passed Report of its suite (None for
    "module" and "raw", which run none).

    For a _SAMPLERS category, strategy 0 draws a two-step nilpotent tensor,
    1 a seed algebra, and 2 (only up to the row's reject_upto) the first
    whole tensor that passes, found by _reject in batches with the stream
    left as one draw at a time leaves it, within _ATTEMPTS draws; it is
    re-verified here as every sample is.  The first two are conjugated by a
    random change of basis."""
    if n < 1:
        raise InputError("sampling needs dim >= 1")
    if category == "module":
        return zero_algebra(field, n, "module"), None
    if category == "raw":
        return make_algebra(field, _names(n), _scalars(field, _draw_tensor(
            rng, field, n, range(n), range(n))[0]), "raw"), None
    if category == "alternative":
        a, _ = _sample(rng, field, n, "associative")
        return _finish(rng, field, a.basis, a.tensor, "alternative", conjugate=False)
    if category not in _SAMPLERS:
        raise InputError(f"no sampler for category {category!r}")
    row = _SAMPLERS[category]
    s = rng.randrange(3 if n <= row.reject_upto else 2)
    if s == 2:
        tensor = _scalars(field, _reject(rng, field, n, category, row.reject))
        return _finish(rng, field, _names(n), tensor, category, conjugate=False)
    if s == 0:
        v = n - rng.randrange(1, n + 1)
        tensor = _scalars(field, _draw_tensor(rng, field, n, range(v), range(v, n),
                                              row.twostep)[0])
    else:
        # the draw needs only the seeds' count, so only the drawn one is built
        seeds = [functools.partial(family, field, n) for family in row.families]
        seeds += [functools.partial(block, field) for block, lo, hi in row.blocks
                  if lo <= n and (hi is None or n <= hi)]
        tensor = _embed_block(field, n, seeds[rng.randrange(len(seeds))]())
    return _finish(rng, field, _names(n), tensor, category)


def sample_algebra(rng: random.Random, field: Field, dim: int,
                   category: str) -> Algebra:
    """One verified random algebra of the given dimension and category."""
    return _sample(rng, field, dim, category)[0]


def sample_action(rng: random.Random, B: Algebra, A: Algebra) -> ActionPair:
    """Uniform random left/right action tensors; deliberately unverified."""
    left = tuple(tuple(tuple(_rand_scalar(rng, B.field) for _ in range(A.dim))
                       for _ in range(A.dim)) for _ in range(B.dim))
    right = tuple(tuple(tuple(_rand_scalar(rng, B.field) for _ in range(A.dim))
                        for _ in range(B.dim)) for _ in range(A.dim))
    return make_action(B, A, left, right)


# ---------------------------------------------------------------------------
# atlas runs


def generate_atlas(field: Field, dim: int, category: str, samples: int,
                   seed: int, out_path: str) -> dict:
    """Sample, classify, and stream verdicts to a JSONL file.

    Each line is one instance: the algebra, its verdict, and the running
    index.  An instance the pipeline refuses with a typed error (InputError
    or ConstructionError) is recorded under "error" and counted; any other
    exception is a bug and propagates.  The final line is a summary.
    Identical arguments produce a byte-identical file.  A negative count or
    a dim below 1 is refused before out_path is opened.
    """
    if samples < 0 or dim < 1:
        raise InputError(f"atlas needs samples >= 0 and dim >= 1, got {samples} and {dim}")
    rng = random.Random(seed)
    counts = {"exists": 0, "not-exists": 0, "unsupported-general": 0, "error": 0}
    with open(out_path, "w") as fh:
        for i in range(samples):
            a, own = _sample(rng, field, dim, category)
            rec = {"index": i, "algebra": a.to_json()}
            try:
                v = actor_pipeline(a, own=own)
                rec["verdict"] = v.to_json(field.to_json)
                counts[v.status] += 1
            except (InputError, ConstructionError) as exc:  # a bug propagates
                rec["error"] = f"{type(exc).__name__}: {exc}"
                counts["error"] += 1
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        summary = {"summary": True, "samples": samples, "seed": seed,
                   "dim": dim, "category": category,
                   "field": field.field_to_json(), "counts": counts}
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    return summary
