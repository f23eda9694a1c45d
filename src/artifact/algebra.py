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
integers.  suite_bound is B, written once too: the semidirect product's tensor,
which constructions.semidirect_tensor places from integer blocks without
reading a scalar, takes its dtype from the same bound.  The pair (lam, lam *
tensor) is built once per suite, or handed to identity_suite by its caller.
Rows are checked in order, one leading witness index at a time: each term
is one matmul on 2-D views of the tensor (BLAS dgemm on the float64 rung),
the signed terms are summed, and linalg.nonzero_mod flags the nonzero
differences (mod p over GF(p)), stopping at the first.  The witness sides
lhs/rhs are read off the same terms at the witness, over lam or lam^2 by
the row's degree: _np_term is the one evaluator of a row.

An Algebra's tensor may be given as a function that builds it on first read
(linalg.lazy): a candidate's own algebra and the semidirect product are
made that way, so a suite that runs on an integer tensor handed in by its
caller never reads it, whether it passes or not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fields import Field, InputError, field_from_json, read_nested
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    basis_vector,
    bilinear,
    exact_ints,
    integer_array,
    lazy,
    nonzero_mod,
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

    def multiply(self, u: Vector, v: Vector) -> Vector:
        return bilinear(self.field, self.tensor, u, v, self.dim)

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of x -> e_i * x."""
        f = self.field
        return Matrix(f, tuple(tuple(self.tensor[i][j][m] for j in range(self.dim))
                               for m in range(self.dim)))

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


def make_algebra(field: Field, basis, tensor, category: str) -> Algebra:
    """Build and validate an Algebra from an explicit structure tensor."""
    basis = tuple(str(b) for b in basis)
    dim = len(basis)
    if len(set(basis)) != dim:
        raise InputError("basis names must be unique")
    if category not in CATEGORIES:
        raise InputError(f"unknown category {category!r}, expected one of {CATEGORIES}")
    t = tuple(tuple(tuple(row) for row in plane) for plane in tensor)
    if len(t) != dim or any(len(p) != dim for p in t) or any(len(r) != dim for p in t for r in p):
        raise InputError("structure tensor must have shape dim x dim x dim")
    if category == "module":
        z = field.zero
        if any(x != z for p in t for r in p for x in r):
            raise InputError("category 'module' requires the zero tensor")
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
    products = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "v"}:
            raise InputError("each product entry needs exactly the keys i, j, v")
        i, j = entry["i"], entry["j"]
        if type(i) is not int or type(j) is not int:  # also refuses JSON true/false
            raise InputError(f"product indices must be integers, got ({i!r},{j!r})")
        if (i, j) in products:
            raise InputError(f"duplicate product entry ({i},{j})")
        products[(i, j)] = read_nested(entry["v"], (dim,), field.parse,
                                       f"product vector ({i},{j})")
    return make_algebra_from_products(field, basis, products, obj["category"])


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


def _np_term(c: np.ndarray, shape: str, perm, i: int) -> np.ndarray:
    """The term's coordinates at leading witness index i (witness label 0),
    T[j, m] or T[j, k, m] for witness labels 1, 2 and coordinate m.

    A product term is sum_s F[x, y, s] G[., ., m]: for "L", F = c at (u, v)
    and G = c[s, w, m]; for "R", F = c at (v, w) and G = c[u, s, m].  It is
    one matmul on 2-D views of c: the slice of whichever factor carries
    label 0 against the other factor, laid out with s as its inner axis
    (batched over u when G keeps it), then axes swapped if label 2 leads."""
    if shape == "T":
        return c[i] if perm[0] == 0 else c[:, i]
    n = len(c)
    u, v, w = perm
    (x, y), z = ((u, v), w) if shape == "L" else ((v, w), u)
    if z == 0:  # label 0 in G: the free pair (x, y) of F leads
        g = c[:, i] if shape == "L" else c[i]
        out, lead = (c.reshape(n * n, n) @ g).reshape(n, n, n), x
    else:
        f = c[i] if x == 0 else c[:, i]  # rows: the other label of F
        other = y if x == 0 else x
        if shape == "L":
            out, lead = (f @ c.reshape(n, n * n)).reshape(n, n, n), other
        else:
            out, lead = f @ c, z
    return out if lead == 1 else out.transpose(1, 0, 2)


def _np_failing(c: np.ndarray, p: Optional[int], lhs, rhs, i: int) -> np.ndarray:
    """Flags, flattened in lexicographic order, of the index tuples with
    leading index i where lhs - rhs is nonzero (mod p, if p is set)."""
    terms = lhs + [(-s, shape, perm) for s, shape, perm in rhs]
    sign, shape, perm = terms[0]
    acc = sign * _np_term(c, shape, perm, i)  # a fresh array, never a view of c
    for sign, shape, perm in terms[1:]:
        if sign > 0:
            acc += _np_term(c, shape, perm, i)
        else:
            acc -= _np_term(c, shape, perm, i)
    return nonzero_mod(acc, p).any(axis=-1).ravel()


def _np_side(c: np.ndarray, terms, witness: tuple) -> np.ndarray:
    """One side of a row at the witness, as an integer vector on the rung of
    c: each term is its _np_term at the leading index read at the others,
    and an empty side is the zero vector."""
    out = np.zeros(c.shape[-1], c.dtype)
    for sign, shape, perm in terms:
        out += sign * _np_term(c, shape, perm, witness[0])[witness[1:]]
    return out


# the most terms in one row of any identity
_SUITE_TERMS = max(len(lhs) + len(rhs) for rows in IDENTITIES.values() for _, lhs, rhs in rows)


def suite_bound(n: int) -> Callable[[int], int]:
    """The kernel's bound on every value it computes from an (n, n, n)
    integer tensor whose largest magnitude is big: each entry of a
    difference is a sum of at most _SUITE_TERMS * n products of two entries.
    Its linalg.rung is the dtype of the tensor the suite runs on."""
    return lambda big: _SUITE_TERMS * n * big ** 2


def _integer_tensor(a: Algebra) -> tuple[int, np.ndarray]:
    """(lam, lam * tensor), the tensor as an (n, n, n) integer array for the
    kernel.  Every row is homogeneous, so scaling keeps each zero pattern."""
    n = a.dim
    return integer_array(a.field, a.tensor, (n, n, n), suite_bound(n))


def check_identity(a: Algebra, tag: str) -> Report:
    """Check one identity tag on all basis tuples of the algebra."""
    if tag not in IDENTITIES:
        raise InputError(f"unknown identity tag {tag!r}")
    return _check_identity(a, tag, _integer_tensor(a))


def _check_identity(a: Algebra, tag: str, scaled: tuple[int, np.ndarray]) -> Report:
    """check_identity on the pair (lam, c) of _integer_tensor(a)."""
    lam, c = scaled
    f = a.field
    n = a.dim
    if n == 0:
        return Report(True, details=[{"name": tag, "status": "pass", "note": "empty algebra"}])
    rows = IDENTITIES[tag]
    for name, lhs, rhs in rows:
        for i in range(n):
            flags = _np_failing(c, f.p, lhs, rhs, i)
            first = int(flags.argmax())
            if flags[first]:
                rest = np.unravel_index(first, (n,) * (len(lhs[0][2]) - 1))
                witness = (i,) + tuple(int(x) for x in rest)
                den = lam if lhs[0][1] == "T" else lam * lam  # the row's degree
                lv, rv = (scalar_tuples(f, den, exact_ints(_np_side(c, side, witness), f.p))
                          for side in (lhs, rhs))
                return Report(False, label=name, witness=witness, lhs=lv, rhs=rv)

    details = [{"name": name, "status": "pass"} for name, _, _ in rows]
    if tag == "alternative" and f.char == 2:
        rep = _alternative_char2_exhaustive(a)
        if not rep.passed:
            return rep
        details += rep.details
    return Report(True, details=details)


def _alternative_char2_exhaustive(a: Algebra) -> Report:
    """Over characteristic 2 the linearized laws are weaker than the
    quadratic ones, so check x(xy)=(xx)y and (yx)x=y(xx) on every vector x
    of the finite space against every basis y."""
    f = a.field
    n = a.dim
    if f.p ** n > 65536:
        raise InputError("char-2 exhaustive alternative check is too large")
    name = "char-2 exhaustive: (xx)y=x(xy), y(xx)=(yx)x"
    for coords in itertools.product(range(f.p), repeat=n):
        x = tuple(f.from_int(c) for c in coords)
        xx = a.multiply(x, x)
        for j in range(n):
            ey = basis_vector(f, n, j)
            if a.multiply(xx, ey) != a.multiply(x, a.multiply(x, ey)):
                return Report(False, label=name, witness=coords + (j,))
            if a.multiply(ey, xx) != a.multiply(a.multiply(ey, x), x):
                return Report(False, label=name, witness=coords + (j,))
    return Report(True, details=[{"name": name, "status": "pass"}])


def identity_suite(a: Algebra, category: Optional[str] = None,
                   c: Optional[tuple[int, np.ndarray]] = None) -> Report:
    """Run the identity tags of the (default: own) category tag.  c, when
    given, must be the pair (lam, array) of _integer_tensor(a), values and
    dtype, built by a caller that holds the tensor in integers already."""
    cat = a.category if category is None else category
    if cat not in SUITES:
        raise InputError(f"unknown category {cat!r}")
    details = []
    if c is None:
        c = _integer_tensor(a)
    for tag in SUITES[cat]:
        rep = _check_identity(a, tag, c)
        if not rep.passed:
            rep.details = details + [{"name": tag, "status": "fail", "label": rep.label}]
            return rep
        details.append({"name": tag, "status": "pass"})
    return Report(True, details=details)


# ---------------------------------------------------------------------------
# subspaces, annihilator, derived subspace, ideals, quotients


def annihilator(a: Algebra) -> Subspace:
    """{x : x*e_j = 0 and e_j*x = 0 for all j}, canonical basis."""
    f = a.field
    n = a.dim
    if n == 0:
        return Subspace(0, Matrix(f, ()), ())
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append(tuple(a.tensor[i][j][k] for i in range(n)))  # x * e_j
            rows.append(tuple(a.tensor[j][i][k] for i in range(n)))  # e_j * x
    null = Matrix.from_rows(f, rows).nullspace()  # canonical already: no second elimination
    return Subspace.spanned_by(null, n) if null.nrows else Subspace(n, Matrix(f, ()), ())


def derived_subspace(a: Algebra) -> Subspace:
    """Span of all basis products e_i * e_j, canonical basis."""
    rows = [a.tensor[i][j] for i in range(a.dim) for j in range(a.dim)]
    return Subspace.from_spanning(a.field, a.dim, rows)


def is_ideal(a: Algebra, s: Subspace) -> Report:
    """Two-sided ideal test for a subspace given by its canonical basis."""
    if s.ambient != a.dim:
        raise InputError("subspace ambient dimension mismatch")
    f = a.field
    for r, v in enumerate(s.basis.rows):
        for j in range(a.dim):
            ej = basis_vector(f, a.dim, j)
            right = a.multiply(v, ej)
            if not s.contains(right):
                return Report(False, label="v*e_j stays in subspace", witness=(r, j), lhs=right)
            left = a.multiply(ej, v)
            if not s.contains(left):
                return Report(False, label="e_j*v stays in subspace", witness=(r, j), lhs=left)
    return Report(True)


def quotient(a: Algebra, ideal: Subspace) -> tuple[Algebra, Matrix]:
    """Quotient algebra by a two-sided ideal plus the projection matrix.

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
    proj = Matrix(f, tuple(zip(*(project(basis_vector(f, n, j)) for j in range(n)))))
    return make_algebra(f, names, tuple(tensor), a.category), proj
