"""Fixed example algebras and seeded random corpora.

All randomness comes from random.Random (Mersenne Twister) so corpora
reproduce across platforms from the seed alone.  The draw order is part of
the contract: first the strategy index, then shape parameters, then scalar
entries in row-major index order ((i, j, k) for tensors, (row, col) for
matrices), then the change-of-basis matrix, redrawn whole until invertible.
Scalars over GF(p) are rng.randrange(p); over Q they are small integers
rng.randrange(-3, 4).

Every sampled algebra is re-verified against its category's identity suite
before being returned; samplers never hand back an unchecked tensor.
Uniform rejection sampling is used where the acceptance rate makes it
affordable (dim <= 2); higher dimensions draw from structured families
(two-step nilpotent tensors, conjugated seeds) that satisfy the identities
by construction and are still re-verified.
"""

import json
import random
from fractions import Fraction

from .algebra import (Algebra, InputError, identity_suite, make_algebra,
                      make_algebra_from_products)
from .actions import ActionPair, make_action
from .existence import actor_pipeline
from .fields import QQ, Field, PrimeField
from .linalg import Matrix

_ATTEMPTS = 50000  # rejection bound per sample; hit only on solver bugs


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


def _rand_scalar(rng, field):
    if isinstance(field, PrimeField):
        return field.from_int(rng.randrange(field.p))
    return Fraction(rng.randrange(-3, 4))


def _rand_tensor(rng, field, n):
    return tuple(tuple(tuple(_rand_scalar(rng, field) for _ in range(n))
                       for _ in range(n)) for _ in range(n))


def _rand_invertible(rng, field, n) -> Matrix:
    for _ in range(_ATTEMPTS):
        m = Matrix(field, tuple(tuple(_rand_scalar(rng, field)
                                      for _ in range(n)) for _ in range(n)))
        if m.rank() == n:
            return m
    raise RuntimeError("could not draw an invertible matrix")


def _conjugate(a: Algebra, p: Matrix) -> Algebra:
    """Transport a's tensor along the basis whose columns are p."""
    n = a.dim
    cols = [p.col(i) for i in range(n)]
    tensor = []
    for i in range(n):
        row = []
        for j in range(n):
            v = a.multiply(cols[i], cols[j])
            coords = p.solve(v)
            if coords is None:
                raise RuntimeError("change of basis is not invertible")
            row.append(tuple(coords))
        tensor.append(tuple(row))
    return make_algebra(a.field, a.basis, tuple(tensor), a.category)


def _embed_block(field, n, block: Algebra) -> tuple:
    """Place block's tensor in the leading coordinates of a dim-n tensor."""
    b = block.dim
    tensor = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(b):
        for j in range(b):
            for k in range(b):
                tensor[i][j][k] = block.tensor[i][j][k]
    return tuple(tuple(tuple(r) for r in row) for row in tensor)


def _two_step_tensor(rng, field, n, w, symmetry=None):
    """Random tensor supported on V x V -> W, V the first n-w coordinates.

    All triple products vanish, so the result satisfies every flavor of the
    associativity-shaped identities; symmetry "sym"/"antisym" additionally
    forces c[j][i] = +/- c[i][j] (with zero diagonal for "antisym").
    """
    v = n - w
    c = [[[field.zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(v):
        for j in range(v):
            if symmetry == "sym" and j < i:
                continue
            if symmetry == "antisym" and j <= i:
                continue
            for k in range(v, n):
                c[i][j][k] = _rand_scalar(rng, field)
    for i in range(v):
        for j in range(v):
            if symmetry == "sym" and j < i:
                for k in range(v, n):
                    c[i][j][k] = c[j][i][k]
            if symmetry == "antisym" and j < i:
                for k in range(v, n):
                    c[i][j][k] = field.neg(c[j][i][k])
    return tuple(tuple(tuple(col) for col in row) for row in c)


# ---------------------------------------------------------------------------
# category samplers


def _finish(rng, field, names, tensor, category, conjugate=True) -> Algebra:
    a = make_algebra(field, names, tensor, category)
    if conjugate and a.dim > 0:
        a = _conjugate(a, _rand_invertible(rng, field, a.dim))
    rep = identity_suite(a)
    if not rep.passed:
        raise RuntimeError(f"sampler produced an invalid {category} algebra: "
                           f"{rep.label} at {rep.witness}")
    return a


def _reject(rng, field, n, category) -> Algebra:
    for _ in range(_ATTEMPTS):
        tensor = _rand_tensor(rng, field, n)
        a = make_algebra(field, _names(n), tensor, category)
        if identity_suite(a).passed:
            return a
    raise RuntimeError(f"rejection sampling found no {category} tensor "
                       f"in {_ATTEMPTS} draws at dim {n}")


def _sample_leibniz(rng, field, n) -> Algebra:
    strategies = ["twostep", "seed"]
    if n <= 2:
        strategies.append("reject")
    s = strategies[rng.randrange(len(strategies))]
    if s == "reject":
        return _reject(rng, field, n, "leibniz")
    if s == "twostep":
        w = rng.randrange(1, n + 1)
        return _finish(rng, field, _names(n),
                       _two_step_tensor(rng, field, n, w), "leibniz")
    seeds = [zero_algebra(field, n, "leibniz")]
    if n >= 2:
        seeds.append(make_algebra(field, _names(n),
                                  _embed_block(field, n, a5_leibniz(field)),
                                  "leibniz"))
    if n == 3:
        for block in (sl2(field), heisenberg(field)):
            seeds.append(make_algebra(field, _names(n),
                                      _embed_block(field, n, block), "leibniz"))
    pick = seeds[rng.randrange(len(seeds))]
    return _finish(rng, field, pick.basis, pick.tensor, "leibniz")


def _sample_associative(rng, field, n) -> Algebra:
    strategies = ["twostep", "seed"]
    if n <= 2:
        strategies.append("reject")
    s = strategies[rng.randrange(len(strategies))]
    if s == "reject":
        return _reject(rng, field, n, "associative")
    if s == "twostep":
        w = rng.randrange(1, n + 1)
        return _finish(rng, field, _names(n),
                       _two_step_tensor(rng, field, n, w), "associative")
    seeds = [zero_algebra(field, n, "associative"),
             diagonal_algebra(field, n),
             truncated_poly(field, n)]
    if n == 3:
        seeds.append(strict_upper3(field))
    pick = seeds[rng.randrange(len(seeds))]
    return _finish(rng, field, _names(n),
                   _embed_block(field, n, pick), "associative")


def _sample_commutative(rng, field, n) -> Algebra:
    strategies = ["twostep", "seed"]
    if n <= 2:
        strategies.append("reject")
    s = strategies[rng.randrange(len(strategies))]
    if s == "reject":
        return _reject(rng, field, n, "commutative")
    if s == "twostep":
        w = rng.randrange(1, n + 1)
        return _finish(rng, field, _names(n),
                       _two_step_tensor(rng, field, n, w, symmetry="sym"),
                       "commutative")
    seeds = [zero_algebra(field, n, "commutative"),
             diagonal_algebra(field, n, "commutative"),
             truncated_poly(field, n, "commutative")]
    pick = seeds[rng.randrange(len(seeds))]
    return _finish(rng, field, _names(n),
                   _embed_block(field, n, pick), "commutative")


def _sample_lie(rng, field, n) -> Algebra:
    strategies = ["twostep", "seed"]
    if n <= 3:
        strategies.append("reject-antisym")
    s = strategies[rng.randrange(len(strategies))]
    if s == "reject-antisym":
        # draw antisymmetric tensors and keep those passing Jacobi
        for _ in range(_ATTEMPTS):
            c = [[[field.zero] * n for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    col = [_rand_scalar(rng, field) for _ in range(n)]
                    c[i][j] = col
                    c[j][i] = [field.neg(x) for x in col]
            a = make_algebra(field, _names(n),
                             tuple(tuple(tuple(col) for col in row) for row in c),
                             "lie")
            if identity_suite(a).passed:
                return a
        raise RuntimeError(f"no Lie tensor found in {_ATTEMPTS} draws at dim {n}")
    if s == "twostep":
        w = rng.randrange(1, n + 1)
        return _finish(rng, field, _names(n),
                       _two_step_tensor(rng, field, n, w, symmetry="antisym"),
                       "lie")
    seeds = [zero_algebra(field, n, "lie")]
    if n == 3:
        seeds.extend([sl2(field), heisenberg(field)])
    pick = seeds[rng.randrange(len(seeds))]
    return _finish(rng, field, _names(n),
                   _embed_block(field, n, pick), "lie")


def sample_algebra(rng: random.Random, field: Field, dim: int,
                   category: str) -> Algebra:
    """One verified random algebra of the given dimension and category."""
    if dim < 1:
        raise InputError("sampling needs dim >= 1")
    if category == "leibniz":
        return _sample_leibniz(rng, field, dim)
    if category == "associative":
        return _sample_associative(rng, field, dim)
    if category == "commutative":
        return _sample_commutative(rng, field, dim)
    if category == "lie":
        return _sample_lie(rng, field, dim)
    if category == "module":
        return zero_algebra(field, dim, "module")
    if category == "alternative":
        a = _sample_associative(rng, field, dim)
        return _finish(rng, field, a.basis, a.tensor, "alternative",
                       conjugate=False)
    if category == "raw":
        return make_algebra(field, _names(dim), _rand_tensor(rng, field, dim),
                            "raw")
    raise InputError(f"no sampler for category {category!r}")


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
    index.  The final line is a summary.  Identical arguments produce a
    byte-identical file.
    """
    rng = random.Random(seed)
    counts = {"exists": 0, "not-exists": 0, "unsupported-general": 0, "error": 0}
    with open(out_path, "w") as fh:
        for i in range(samples):
            a = sample_algebra(rng, field, dim, category)
            rec = {"index": i, "algebra": a.to_json()}
            try:
                v = actor_pipeline(a)
                rec["verdict"] = v.to_json()
                counts[v.status] += 1
            except Exception as exc:  # surfaced per instance, run continues
                rec["error"] = f"{type(exc).__name__}: {exc}"
                counts["error"] += 1
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        summary = {"summary": True, "samples": samples, "seed": seed,
                   "dim": dim, "category": category,
                   "field": field.field_to_json(), "counts": counts}
        fh.write(json.dumps(summary, sort_keys=True) + "\n")
    return summary
