"""Finite-dimensional algebras given by structure constants.

An algebra is a field, a basis, and a tensor c with
e_i * e_j = sum_k c[i][j][k] e_k, plus a category tag naming the identity
suite the instance is supposed to satisfy.

Every identity is written once, as data in IDENTITIES: signed sums of the
products u*v, (u*v)*w and u*(v*w) over permuted basis indices.  One numpy
kernel reads that table for every field and reports the lexicographically
first failing basis tuple.  It multiplies the tensor by lam, the lcm of the
entries' denominators (1 over GF(p)); each row is homogeneous, of degree 1
or 2 in the tensor, so no zero pattern changes.  With B = terms * dim *
max|entry|^2, terms the largest number of terms in one row of any identity,
bounding every product and partial sum, the integers sit on one of three
rungs: float64 while B < 2^53, where every such value is an integer that
float64 holds exactly whatever the summation order (the technique of
FFLAS-FFPACK), int64 while B < 2^63, and Python ints (an object array)
beyond, so nothing rounds or wraps around.  linalg.integer_array is that
rule, written once, and linalg.exact_ints is the one way back to exact
integers.  suite_bound is B, written once too.  The pair (lam, lam * tensor)
is Algebra.integer_tensor, given by the reader or built once per algebra,
and read by every user; identity_suite takes a semidirect product's Blocks
from its caller.

The kernel reads a tensor as Blocks: the basis cut into two parts, B then
A, where B * B lands in B and every other product in A, which is the shape
of a semidirect product B x A; a dense tensor is the case of an empty A.
constructions.semidirect_tensor places the product's four blocks from the
integer arrays the candidate already holds, on the rung suite_bound gives
the whole product, and names in Blocks.closed, per identity tag, the
blocks of witnesses that hold on it by construction or by proof, and in
Blocks.dominated those that need not hold but never hold the suite's first
failure.  The suite evaluates neither, and that is the one rule for what it
skips.
Rows are checked in order.  Within a row, witnesses led by an index in B
come before those led by one in A, and one sweep (_first_failure) steps
through the leading indices of each part: every open block of witnesses,
present and not closed, is evaluated on the same few leading indices (a few
second indices at a time where one leading index alone is larger than a
step), each term one matmul of two blocks (BLAS dgemm on the float64 rung),
so a failure near the start stops every block early.  The signed terms are
summed, linalg.nonzero_mod flags the nonzero differences (mod p over
GF(p)), and the least of the first flags of the step's failing blocks,
shifted onto the whole basis, is the lexicographically first failing tuple.
The witness sides lhs/rhs are read off the same terms at the witness, over
lam or lam^2 by the row's degree, when the Report's fields are first read: a
rejection draw or a verdict reads only the label and the witness.
_np_term is the one evaluator of a term, _np_sum the one signed sum of a
row's terms, and _row_failure the one reader of its witness: here, for the
condition 1/2 rows of constructions on the product's B x B x A block, for
the two replacement-word rows of words.validate_word_on_algebra, whose
integer coefficients its caller counts in the rung's bound, and (_np_sum)
in the constraint assembly, in the candidate's closure, which sums the
terms of its bracket's replacement word, and in suite_flags, which sums
each row of a suite over a whole stack of tensors at once and flags the
tensors that pass, for the sampler's rejection draws.
Over GF(2) the alternative rows, the linearized laws, do not imply the
quadratic ones; _alternative_char2_laws checks those at the basis vectors
once the rows have passed, which decides them for every vector.

An Algebra's tensor may be given as a function that builds it on first read
(linalg.lazy): a candidate's own algebra and the semidirect product are
made that way, so a suite that runs on an integer tensor handed in by its
caller never reads it, whether it passes or not.  So is a parsed algebra:
algebra_from_json reads each literal straight to its integer pair
(fields.read_literal), takes lam as the lcm of their denominators and the
integer tensor on suite_bound's rung, and gives that pair as the algebra's
integer_tensor, with the tensor the view linalg.scalar_tuples builds from
it, the same lowest-terms scalars, on first read.  A verdict then makes no
field scalar of its input.  Every other constructor gives the tensor, and
integer_tensor is built from it on first read.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from .fields import Field, InputError, field_from_json, read_literal, read_nested
from .linalg import (
    Matrix,
    Vector,
    basis_vector,
    bilinear,
    exact_ints,
    integer_array,
    lazy,
    nonzero_mod,
    on_rung,
    rung,
    scalar_tuples,
    vec_is_zero,
    vec_zero,
)
from .reporting import Report

CATEGORIES = ("lie", "leibniz", "associative", "commutative", "alternative", "module", "raw")

# identity tags run for each category tag
SUITES = {
    "lie": ("anticommutativity", "jacobi"),
    "leibniz": ("leibniz",),
    "associative": ("associativity",),
    "commutative": ("associativity", "commutativity"),
    "alternative": ("alternative",),
    "module": ("zero",),
    "raw": (),
}


@dataclass(frozen=True)
class Algebra:
    field: Field
    dim: int
    basis: tuple[str, ...]
    tensor: tuple = lazy()  # tensor[i][j] is the coefficient vector of e_i * e_j
    category: str
    # (lam, lam * tensor) on the rung of suite_bound: each identity row is
    # homogeneous, so it keeps every zero.  Given by algebra_from_json, else
    # built from tensor on first read.  Shared, so read-only
    integer_tensor: tuple = dataclasses.field(
        default=lazy(view=lambda a: _shared(*integer_array(
            a.field, a.tensor, (a.dim,) * 3, suite_bound(a.dim)))),
        compare=False, repr=False)

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return bilinear(self.field, self.tensor, u, v, self.dim)

    def to_json(self) -> dict:
        f = self.field
        products = []
        for i in range(self.dim):
            for j in range(self.dim):
                v = self.tensor[i][j]
                if not vec_is_zero(f, v):
                    products.append({"i": i, "j": j, "v": [f.to_json(x) for x in v]})
        return {
            "field": f.field_to_json(),
            "dim": self.dim,
            "basis": list(self.basis),
            "category": self.category,
            "products": products,
        }


def _shared(lam: int, ints: np.ndarray) -> tuple[int, np.ndarray]:
    """The pair (lam, ints) with ints made read-only, to be shared."""
    ints.flags.writeable = False
    return lam, ints


def _checked_basis(basis, category: str) -> tuple[str, ...]:
    """The basis as names, refused unless they are unique and the category
    is one of CATEGORIES."""
    basis = tuple(str(b) for b in basis)
    if len(set(basis)) != len(basis):
        raise InputError("basis names must be unique")
    if category not in CATEGORIES:
        raise InputError(f"unknown category {category!r}, expected one of {CATEGORIES}")
    return basis


_NONZERO_MODULE = "category 'module' requires the zero tensor"


def make_algebra(field: Field, basis, tensor, category: str) -> Algebra:
    """Build and validate an Algebra from an explicit structure tensor."""
    basis = _checked_basis(basis, category)
    dim = len(basis)
    t = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    if len(t) != dim or any(len(p) != dim for p in t) or any(len(r) != dim for p in t for r in p):
        raise InputError("structure tensor must have shape dim x dim x dim")
    if category == "module":
        z = field.zero
        if any(x != z for p in t for r in p for x in r):
            raise InputError(_NONZERO_MODULE)
    return Algebra(field, dim, basis, t, category)


def make_algebra_from_products(field: Field, basis, products: dict, category: str) -> Algebra:
    """products maps (i, j) to a coefficient vector; missing pairs are zero."""
    dim = len(tuple(basis))
    zero = vec_zero(field, dim)
    tensor = [[zero for _ in range(dim)] for _ in range(dim)]
    for (i, j), v in products.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise InputError(f"product index ({i},{j}) out of range")
        if len(v) != dim:
            raise InputError(f"product vector for ({i},{j}) has wrong length")
        tensor[i][j] = tuple(v)
    return make_algebra(field, basis, tensor, category)


def algebra_from_json(obj) -> Algebra:
    """The algebra a JSON document describes, refused as
    make_algebra_from_products and make_algebra refuse it.  Each product
    literal is read straight to its integer pair (fields.read_literal), and
    one lcm of the denominators gives lam, so the document's lam and
    integer tensor, on suite_bound's rung, are the algebra's integer_tensor
    as given, and its scalar tensor is a view of them, built on first read."""
    if not isinstance(obj, dict):
        raise InputError("algebra JSON must be an object")
    required = {"field", "dim", "basis", "category"}
    allowed = required | {"products"}
    if not required <= set(obj) or not set(obj) <= allowed:
        raise InputError(f"algebra JSON keys must be {sorted(allowed)} (products optional)")
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if type(dim) is not int:
        raise InputError(f"dim must be an integer, got {dim!r}")
    basis = read_nested(obj["basis"], (dim,), str, "basis")
    entries = obj.get("products", [])
    if not isinstance(entries, list):
        raise InputError("products must be a list of entries")
    read = functools.partial(read_literal, field)
    products = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "v"}:
            raise InputError("each product entry needs exactly the keys i, j, v")
        i, j = entry["i"], entry["j"]
        if type(i) is not int or type(j) is not int:  # also refuses JSON true/false
            raise InputError(f"product indices must be integers, got ({i!r},{j!r})")
        if (i, j) in products:
            raise InputError(f"duplicate product entry ({i},{j})")
        products[(i, j)] = read_nested(entry["v"], (dim,), read, f"product vector ({i},{j})")
    for i, j in products:
        if not (0 <= i < dim and 0 <= j < dim):
            raise InputError(f"product index ({i},{j}) out of range")
    category = obj["category"]
    basis = _checked_basis(basis, category)
    if category == "module" and any(num for v in products.values() for num, _ in v):
        raise InputError(_NONZERO_MODULE)
    lam = math.lcm(*(den for v in products.values() for _, den in v))
    flat = [num * (lam // den) for v in products.values() for num, den in v]
    # on_rung's rule, read off the ints before the array is made in its dtype
    dtype = rung(suite_bound(dim)(max(map(abs, flat), default=0)))
    ints = np.zeros((dim * dim, dim), dtype)
    ints[[i * dim + j for i, j in products]] = np.array(flat, dtype).reshape(len(products), dim)
    ints = ints.reshape((dim,) * 3)
    return Algebra(field, dim, basis, lambda: scalar_tuples(field, lam, exact_ints(ints)),
                   category, _shared(lam, ints))


# ---------------------------------------------------------------------------
# identity checks
#
# Each tag is a list of rows (name, lhs, rhs), checked in order.  A side is a
# signed sum of terms (sign, shape, perm) over the witness indices, picked
# out by perm: "T" is the product u*v, "L" is (u*v)*w and "R" is u*(v*w).

IDENTITIES = {
    "associativity": [("(x*y)*z = x*(y*z)", [(1, "L", (0, 1, 2))], [(1, "R", (0, 1, 2))])],
    "commutativity": [("x*y = y*x", [(1, "T", (0, 1))], [(1, "T", (1, 0))])],
    "anticommutativity": [("x*y = -y*x", [(1, "T", (0, 1))], [(-1, "T", (1, 0))])],
    "jacobi": [("[[x,y],z]+[[y,z],x]+[[z,x],y] = 0",
                [(1, "L", (0, 1, 2)), (1, "L", (1, 2, 0)), (1, "L", (2, 0, 1))], [])],
    "leibniz": [("[x,[y,z]] = [[x,y],z]-[[x,z],y]", [(1, "R", (0, 1, 2))],
                 [(1, "L", (0, 1, 2)), (-1, "L", (0, 2, 1))])],
    "alternative": [
        ("x(yz) = (xy)z+(yx)z-y(xz)", [(1, "R", (0, 1, 2))],
         [(1, "L", (0, 1, 2)), (1, "L", (1, 0, 2)), (-1, "R", (1, 0, 2))]),
        ("(xy)z = x(yz)-(xz)y+x(zy)", [(1, "L", (0, 1, 2))],
         [(1, "R", (0, 1, 2)), (-1, "L", (0, 2, 1)), (1, "R", (0, 2, 1))]),
    ],
    "zero": [("all products vanish", [(1, "T", (0, 1))], [])],
}

IDENTITY_TAGS = tuple(IDENTITIES)


class Blocks(NamedTuple):
    """An integer structure tensor on a basis cut into two parts, B (part 0,
    dim m) then A (part 1, dim n), where B * B lands in B and every other
    product in A, so a product of parts p and q lands in part p | q: the
    shape of a semidirect product B x A.  It is held as its four blocks,
    all on one rung: bb (m, m, m), ba (m, n, n) with ba[b, a, r] the
    coordinate r of e_b * e_a, ab (n, m, n) and aa (n, n, n).  A dense
    tensor is the case n = 0.

    closed maps an identity tag to the blocks of witnesses that hold on
    this tensor by construction or by proof, each named by the parts of its
    labels, such as (0, 1, 0) for the witnesses in B x A x B: the suite
    never evaluates them.  dominated maps a tag to open blocks that need
    not hold but never hold the suite's first failure, as an earlier open
    block fails first wherever they fail: the suite skips them too.  A
    dense tensor names none; constructions.semidirect_tensor states both
    for a semidirect product, with the proofs on KIND_TABLE's rows."""

    bb: np.ndarray
    ba: Optional[np.ndarray] = None
    ab: Optional[np.ndarray] = None
    aa: Optional[np.ndarray] = None
    closed: Mapping[str, frozenset] = MappingProxyType({})
    dominated: Mapping[str, frozenset] = MappingProxyType({})

    @property
    def dims(self) -> tuple[int, int]:
        return len(self.bb), 0 if self.aa is None else len(self.aa)


@functools.cache
def _term_plan(shape: str, perm: tuple, parts: tuple, cut_labels: tuple) -> tuple:
    """How _np_term reads a term on a block of witnesses, the labels in
    cut_labels cut: for F and then G (None, None for a "T" term), its index
    in Blocks and, for its two leading axes, the cut each takes, 0 the rows
    of label 0, 1 the columns of label 1, 2 the whole axis (None if both
    take it whole); then the transpose of the result into label order (None
    if it is in order).  A product of parts p and q is Blocks field 2p + q."""

    def factor(p, q, labels):
        axes = tuple(x if x in cut_labels else 2 for x in labels)
        return 2 * p + q, (None if axes == (2, 2) else axes)

    if shape == "T":
        plan = factor(parts[perm[0]], parts[perm[1]], perm) + (None, None)
    elif shape == "L":  # F at (u, v), G at (s, w)
        u, v, w = perm
        plan = (factor(parts[u], parts[v], (u, v))
                + factor(parts[u] | parts[v], parts[w], (None, w)))
    else:  # F at (v, w), G at (u, s)
        u, v, w = perm
        plan = (factor(parts[v], parts[w], (v, w))
                + factor(parts[u], parts[v] | parts[w], (u, None)))
    axes = tuple(perm.index(x) for x in range(len(perm))) + (len(perm),)
    return plan + (None if axes == tuple(range(len(axes))) else axes,)


_ALL = slice(None)


def _np_term(t: Blocks, shape: str, perm: tuple, parts: tuple, rows: slice,
             cols: slice = _ALL) -> np.ndarray:
    """The term's coordinates at the witnesses whose label x runs over part
    parts[x] of t, label 0 over rows of its part only and label 1 over cols:
    an array T[x0, x1, m] or T[x0, x1, x2, m], m a coordinate of the part the
    term lands in.  Blocks with leading stack axes, such as a (K, n, n, n)
    stack of dense tensors, give one such array per tensor, the stack axes
    leading.

    A product term is sum_s F[., ., s] G[., ., m], s over the part the inner
    product lands in: for "L", (u*v)*w, F is the block at (u, v) and G the
    one at (s, w); for "R", u*(v*w), F is at (v, w) and G at (u, s).  It is
    one matmul on 2-D views (batched over u for "R", and over the stack) of
    the two blocks, each cut to the rows and cols of the labels it carries,
    with the axes then put in label order (_term_plan)."""
    fi, fcut, gi, gcut, axes = _term_plan(shape, perm, parts, (0,) if cols is _ALL else (0, 1))
    cut = (rows, cols, _ALL)
    f = t[fi] if fcut is None else t[fi][..., cut[fcut[0]], cut[fcut[1]], :]
    if gi is None:
        out = f
    else:
        g = t[gi] if gcut is None else t[gi][..., cut[gcut[0]], cut[gcut[1]], :]
        stack = f.shape[:-3]
        flat = f.reshape(stack + (-1, f.shape[-1]))
        if shape == "L":
            out = flat @ g.reshape(stack + (g.shape[-3], -1))
            out = out.reshape(f.shape[:-1] + g.shape[-2:])
        else:  # flat broadcast over u
            out = flat[..., None, :, :] @ g
            out = out.reshape(g.shape[:-2] + f.shape[-3:-1] + g.shape[-1:])
    if axes is None:
        return out
    lead = out.ndim - len(axes)
    return out.transpose(tuple(range(lead)) + tuple(x + lead for x in axes) if lead else axes)


def _np_sum(t: Blocks, terms, parts: tuple, rows: slice, cols: slice = _ALL) -> np.ndarray:
    """The terms, each times its integer coefficient, summed on _np_term's
    block: a fresh array, never a view of t.  A coefficient of +-1 adds or
    subtracts in place; any other costs one multiply."""
    sign, shape, perm = terms[0]
    acc = sign * _np_term(t, shape, perm, parts, rows, cols)
    for sign, shape, perm in terms[1:]:
        term = _np_term(t, shape, perm, parts, rows, cols)
        if sign == 1:
            acc += term
        elif sign == -1:
            acc -= term
        else:
            acc += sign * term
    return acc


def _difference(lhs, rhs) -> list:
    """The terms of lhs - rhs, for a row's sides lhs and rhs."""
    return lhs + [(-s, shape, perm) for s, shape, perm in rhs]


def _np_failing(t: Blocks, p: Optional[int], terms, parts: tuple, rows: slice,
                cols: slice = _ALL) -> np.ndarray:
    """Flags over the witnesses of _np_term's block where the signed terms
    sum to a nonzero vector (mod p, if p is set), indexed [x0, x1(, x2)]."""
    return nonzero_mod(_np_sum(t, terms, parts, rows, cols), p).any(axis=-1)


# the most cells of term values one step of the sweep takes at once, counting
# every open block of the leading part: a whole number of leading indices, or,
# where one leading index holds more, a whole number of its second indices, at
# least one.  From a sweep, best of 12 rounds on one BLAS thread, of 72 own
# suites (GF(5) dims 3-6, Q dims 3-4, four categories): one index at a time
# 16.9 ms, 2^8 cells 10.7, 2^10 8.8, 2^14 7.1, 2^18 8.4; 30 GF(5) Leibniz and
# commutative pipelines at dims 3-5 took 129-137 ms at every budget (Intel
# Xeon, numpy 2.4 with OpenBLAS, a shared 2-core host).  A leading index of
# the dim-6 Leibniz candidate's all-B block holds 72^3 cells, so its sweep
# takes three second indices a step
SWEEP_CELLS = 2 ** 14


def _index_slices(count: int, width: int, cells: int):
    """range(count) as consecutive slices, each of as many indices as cells
    holds at width cells per index, and at least one."""
    k = max(1, cells // max(1, width))
    return (slice(i, min(i + k, count)) for i in range(0, count, k))


@functools.cache
def _sweep(k: int, dims: tuple, closed: frozenset, cells: int) -> tuple:
    """The steps (lead, rows, blocks, cols) of the sweep over the witnesses
    of k labels, for parts of dims (B, A): per leading part, B before A,
    every open block (present, not closed) on the same leading indices rows,
    as many as cells holds over all of them together.  Where one leading
    index alone holds more, the step is that index, its second indices cols
    taken a few at a time, first in the blocks whose second label is in B,
    then in those whose is in A."""
    steps = []
    for lead in (0, 1):
        blocks = tuple(b for b in itertools.product((0, 1), repeat=k)
                       if b[0] == lead and all(dims[x] for x in b) and b not in closed)
        # cells per index of label 1, in each block
        width = {b: math.prod(dims[x] for x in b[2:]) * dims[max(b)] for b in blocks}
        total = sum(width[b] * dims[b[1]] for b in blocks)
        if total <= cells:
            steps += [(lead, rows, blocks, _ALL)
                      for rows in _index_slices(dims[lead] if blocks else 0, total, cells)]
            continue
        for i, second in itertools.product(range(dims[lead]), (0, 1)):
            group = tuple(b for b in blocks if b[1] == second)
            steps += [(lead, slice(i, i + 1), group, cols)
                      for cols in _index_slices(dims[second] if group else 0,
                                                sum(width[b] for b in group), cells)]
    return tuple(steps)


def _first_failure(t: Blocks, p: Optional[int], terms, closed: frozenset) -> Optional[tuple]:
    """The lexicographically first witness outside the closed blocks at
    which the signed terms of a row sum to a nonzero vector, or None.

    The open blocks are swept together in the steps of _sweep, so witnesses
    led by an index in B come before those led by one in A, and no step
    past the first that flags anything is evaluated.  In that step each
    flagged block's row-major first flag, shifted onto the whole basis, is
    the block's first witness, as the shift is monotone in each label; the
    least of them is the step's."""
    k = len(terms[0][2])
    dims = t.dims
    for _, rows, blocks, cols in _sweep(k, dims, closed, SWEEP_CELLS):
        starts = (rows.start, cols.start or 0) + (0,) * (k - 2)
        firsts = [tuple(dims[0] * x + start + int(i) for x, start, i
                        in zip(parts, starts, np.unravel_index(int(f.argmax()), f.shape)))
                  for parts in blocks
                  for f in (_np_failing(t, p, terms, parts, rows, cols),) if f.any()]
        if firsts:
            return min(firsts)
    return None


def _np_side(t: Blocks, terms, witness: tuple) -> np.ndarray:
    """One side of a row at the witness, as an integer vector over the whole
    basis on the rung of t: the _np_sum of its terms on the witness's
    block, read at the witness, and an empty side is the zero vector."""
    m, n = t.dims
    parts = tuple(int(x >= m) for x in witness)
    at = tuple(x - m * q for x, q in zip(witness, parts))
    out = np.zeros(m + n, t.bb.dtype)
    if terms:
        lands = out[m:] if 1 in parts else out[:m]
        lands += _np_sum(t, terms, parts, slice(at[0], at[0] + 1))[(0,) + at[1:]]
    return out


# the most terms in one row of any identity
_SUITE_TERMS = max(len(lhs) + len(rhs) for rows in IDENTITIES.values() for _, lhs, rhs in rows)


def suite_bound(n: int) -> Callable[[int], int]:
    """The kernel's bound on every value it computes from an (n, n, n)
    integer tensor whose largest magnitude is big: each entry of a
    difference is a sum of at most _SUITE_TERMS * n products of two entries.
    Its linalg.rung is the dtype of the tensor the suite runs on."""
    return lambda big: _SUITE_TERMS * n * big ** 2


def check_identity(a: Algebra, tag: str) -> Report:
    """Check one identity tag on all basis tuples of the algebra."""
    if tag not in IDENTITIES:
        raise InputError(f"unknown identity tag {tag!r}")
    return _check_identity(a, tag, a.integer_tensor)


def _check_identity(a: Algebra, tag: str, scaled: tuple) -> Report:
    """check_identity on the pair (lam, t): a.integer_tensor, or the
    Blocks of a semidirect product with its lam."""
    lam, t = scaled
    t = t if isinstance(t, Blocks) else Blocks(t)
    f = a.field
    if a.dim == 0:
        return Report(True, details=[{"name": tag, "status": "pass", "note": "empty algebra"}])
    rows = IDENTITIES[tag]
    skip = t.closed.get(tag, frozenset()) | t.dominated.get(tag, frozenset())
    for row in rows:
        rep = _row_failure(f, (lam, t), row, skip)
        if rep is not None:
            return rep

    details = [{"name": name, "status": "pass"} for name, _, _ in rows]
    if tag == "alternative" and f.char == 2:
        rep = _alternative_char2_laws(a)
        if not rep.passed:
            return rep
        details += rep.details
    return Report(True, details=details)


def _row_failure(f: Field, scaled: tuple, row: tuple, closed: frozenset) -> Optional[Report]:
    """The failing Report of an identity row (name, lhs, rhs) on the pair
    (lam, Blocks), at its first witness outside the closed blocks, or None
    if the row holds there.  The sides are read off the same Blocks, over
    lam or lam^2 by the row's degree, when they are first read."""
    lam, t = scaled
    name, lhs, rhs = row
    witness = _first_failure(t, f.p, _difference(lhs, rhs), closed)
    if witness is None:
        return None
    den = lam if lhs[0][1] == "T" else lam * lam

    def side(terms):
        return lambda: scalar_tuples(f, den, exact_ints(_np_side(t, terms, witness), f.p))

    return Report(False, label=name, witness=witness, lhs=side(lhs), rhs=side(rhs))


def _alternative_char2_laws(a: Algebra) -> Report:
    """Over characteristic 2 the linearized laws are weaker than the
    quadratic ones x(xy)=(xx)y and (yx)x=y(xx), so check those for every
    vector x of the finite space against every basis y = e_k; called only
    once both rows of IDENTITIES["alternative"] have passed.

    Then the left law at x = e_i decides both.  The first row at (x, y, x)
    and the second at (x, x, y) give (yx)x - y(xx) = x(yx) - (xy)x =
    (xx)y - x(xy), so the right law fails exactly where the left one does.
    Let D_ij = e_i(e_j y) - (e_i e_j)y, so that x(xy) - (xx)y = sum_ij x_i
    x_j D_ij.  Over GF(2) x_i^2 = x_i, so as a function on GF(2)^n this is
    sum_i x_i D_ii + sum_{i<j} x_i x_j (D_ij + D_ji), and D_ij + D_ji = 0 is
    the first row at (e_i, e_j, y).  So x(xy) - (xx)y is the sum of D_ii
    over i in supp x, and the laws hold for every x exactly when they hold
    at every e_i.  The Report is that of a sweep over every x in
    itertools.product order, last coordinate fastest, against y = e_k in
    order: every vector before e_i is supported on indices above i, so the
    first failing x is e_i for the largest failing i, with the first
    failing k there.

    With c the integer tensor mod 2 and sq[i] = e_i e_i, (e_i e_i)e_k is
    sq @ c as an (n, n * n) matrix and e_i(e_i e_k) the batched c @ c."""
    n = a.dim
    name = "char-2 exhaustive: (xx)y=x(xy), y(xx)=(yx)x"
    c = exact_ints(a.integer_tensor[1], 2)
    sq = c[np.arange(n), np.arange(n)]
    bad = (((sq @ c.reshape(n, n * n)).reshape(n, n, n) - c @ c) % 2).any(axis=2)
    failing = np.flatnonzero(bad.any(axis=1))
    if failing.size:
        i = int(failing[-1])
        witness = tuple(int(v == i) for v in range(n)) + (int(bad[i].argmax()),)
        return Report(False, label=name, witness=witness)
    return Report(True, details=[{"name": name, "status": "pass"}])


def identity_suite(a: Algebra, category: Optional[str] = None,
                   c: Optional[tuple] = None) -> Report:
    """Run the identity tags of the (default: own) category tag on
    a.integer_tensor, or on c when given: the pair (lam, t) of a semidirect
    product, t its Blocks, with the values and dtype of its integer_tensor,
    placed by a caller that holds the blocks in integers already."""
    cat = a.category if category is None else category
    if cat not in SUITES:
        raise InputError(f"unknown category {cat!r}")
    details = []
    c = a.integer_tensor if c is None else c
    for tag in SUITES[cat]:
        rep = _check_identity(a, tag, c)
        if not rep.passed:
            rep.details = details + [{"name": tag, "status": "fail", "label": rep.label}]
            return rep
        details.append({"name": tag, "status": "pass"})
    return Report(True, details=details)


def suite_flags(stack: np.ndarray, category: str, p: Optional[int]) -> np.ndarray:
    """One flag per tensor of stack, a (K, n, n, n) array of exact integers,
    True exactly where that tensor satisfies every row of the category's
    suite (mod p, if p is set): each row is one _np_sum over the whole
    stack, on the rung suite_bound gives it.  It reads the rows alone, so
    over characteristic 2 an alternative tensor that passes here may still
    fail _alternative_char2_laws."""
    t = Blocks(on_rung(stack, suite_bound(stack.shape[-1])))
    ok = np.ones(len(stack), bool)
    for tag in SUITES[category]:
        for _, lhs, rhs in IDENTITIES[tag]:
            terms = _difference(lhs, rhs)
            bad = nonzero_mod(_np_sum(t, terms, (0,) * len(terms[0][2]), _ALL), p)
            ok &= ~bad.reshape(len(stack), -1).any(axis=1)
    return ok


# ---------------------------------------------------------------------------
# subspaces, annihilator, derived subspace, ideals, quotients


def annihilator(a: Algebra) -> Matrix:
    """{x : x*e_j = 0 and e_j*x = 0 for all j} as its RREF Matrix: the null
    space of c[:, j, k] and c[j, :, k] for each (j, k), c = integer_tensor."""
    f, n = a.field, a.dim
    c = a.integer_tensor[1]
    rows = np.stack((c.transpose(1, 2, 0), c.transpose(0, 2, 1)), axis=2)
    return Matrix.from_ints(f, rows.reshape(2 * n * n, n)).nullspace()


def derived_subspace(a: Algebra) -> Matrix:
    """Span of all basis products e_i * e_j as its RREF Matrix."""
    n = a.dim
    rows = a.integer_tensor[1].reshape(n * n, n)
    return Matrix.from_ints(a.field, rows).rref()


def is_ideal(a: Algebra, s: Matrix) -> Report:
    """Two-sided ideal test for a subspace given as its RREF Matrix."""
    if s.ncols != a.dim:
        raise InputError("subspace ambient dimension mismatch")
    f = a.field
    for r, v in enumerate(s.rows):
        for j in range(a.dim):
            ej = basis_vector(f, a.dim, j)
            right = a.multiply(v, ej)
            if not s.contains(right):
                return Report(False, label="v*e_j stays in subspace", witness=(r, j), lhs=right)
            left = a.multiply(ej, v)
            if not s.contains(left):
                return Report(False, label="e_j*v stays in subspace", witness=(r, j), lhs=left)
    return Report(True)


def quotient(a: Algebra, ideal: Matrix) -> tuple[Algebra, Matrix]:
    """Quotient algebra by a two-sided ideal, given as its RREF Matrix, plus
    the projection matrix.

    The complement is spanned by the coordinates outside the ideal's pivot
    columns; the projection reduces a vector by the ideal's RREF basis and
    reads off the complement coordinates.
    """
    rep = is_ideal(a, ideal)
    if not rep.passed:
        raise InputError("quotient requires a two-sided ideal")
    f = a.field
    n = a.dim
    pivset = set(ideal.pivots)
    qcols = [c for c in range(n) if c not in pivset]

    def project(v: Vector) -> Vector:
        residual = ideal.residual(v)
        return tuple(residual[q] for q in qcols)

    qdim = len(qcols)
    tensor = []
    for r in range(qdim):
        plane = []
        er = basis_vector(f, n, qcols[r])
        for s_ in range(qdim):
            es = basis_vector(f, n, qcols[s_])
            plane.append(project(a.multiply(er, es)))
        tensor.append(tuple(plane))
    names = tuple(a.basis[q] for q in qcols)
    # a quotient by the whole algebra projects onto F^0: a 0 x n matrix
    proj = (Matrix.from_rows(f, zip(*(project(basis_vector(f, n, j)) for j in range(n))))
            if qdim else Matrix.zeros(f, 0, n))
    return make_algebra(f, names, tuple(tensor), a.category), proj
