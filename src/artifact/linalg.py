"""Dense exact linear algebra over the fields in :mod:`artifact.fields`.

Matrices are immutable row-major tuples of field scalars.  Row reduction is
one Gauss-Jordan elimination on rows of Python ints for both fields, with
the first nonzero pivot rule, which makes every output deterministic.  Over
Q each row is first multiplied by the lcm of its denominators (row scaling
keeps the row space), then eliminated fraction-free as in Bareiss (1968),
row_i <- a*row_i - s*row_r, except that the new row is divided by the gcd of
its entries rather than by the previous pivot, which keeps every row
primitive; Fractions are made only at the end, each pivot row divided by its
pivot.  Over GF(p) the pivot row is scaled by its inverse and an update
touches only its nonzero columns.  The RREF is unique, so nullspace and
row-space bases are canonical and two equal subspaces always produce
identical basis matrices, comparable with ==.  Over Q rows of Python ints
are accepted as they are (lam = 1), so a caller may hand in rows already
scaled to integers; the output is in Fractions either way.

Tall inputs, more nonzero rows than columns (constraint systems are tall and
redundant: 648 x 72 of rank 21-66 over GF(5)), go through a certified front
end first, a float64 Gauss-Jordan mod a prime with lazy reduction in the
manner of FFLAS-FFPACK (Dumas, Giorgi & Pernet 2008):
  * over GF(p), ncols + 4 pseudo-random combinations of the rows (a Toeplitz
    sketch hashed by integer arithmetic) are eliminated mod p, giving B;
  * over Q, elimination mod SELECT_PRIME of the integer rows picks at most
    ncols rows independent mod that prime, hence over Q, and the exact loop
    above eliminates only those, giving B.
Either way span(B) lies inside the row space, and one matmul checks the
reverse inclusion: every row x equals x[pivots] @ B (mod p over GF(p), in
integers over Q).  A row that fails joins B and one more elimination over
them covers the whole row space.  So the output is the unique RREF on every
input, whatever the prime or the sketch.  Over GF(p) the front end runs only
while the float64 rung holds: every sketch entry, kernel entry and check
entry is below n p max|x| < 2^53; past that, and for small or wide inputs,
the loop runs alone.  Crossover, one BLAS thread, per call, loop -> front
end: over GF(5) 81 x 18 0.12 -> 0.23 ms and 64 x 16 0.11 -> 0.18 ms (so
small inputs keep the loop), 125 x 25 0.36 -> 0.34 ms, 216 x 36 1.20 ->
0.60 ms, 375 x 50 2.10 -> 1.06 ms and 648 x 72 8.1 -> 2.7 ms, hence
TALL_CELLS_GF = 4096; over Q, where the loop's gcds of big integers cost
more, 27 x 9 0.12 -> 0.18 ms, 64 x 16 0.64 -> 0.44 ms, 81 x 18 0.81 ->
0.61 ms and 192 x 32 5.7 -> 2.1 ms, hence TALL_CELLS_Q = 1024 (constraint
matrices of the actor workloads; Intel Xeon, numpy 2.4 with OpenBLAS).

The integer rung rule is written here, once: integer_array puts lam times
a nested list of scalars on the cheapest exact numpy dtype (rung), float64
while the caller's bound stays below 2^53, then int64, then Python ints.
So is the residue rule: exact_ints takes an array on any rung to exact
integers, reduced into [0, p) over GF(p), never by a float remainder nor in
a dtype too narrow for p, so every prime field_from_json accepts gets the
same exact answer.  nonzero_mod and python_ints, the one way back to exact
code, are built on it; algebra and constructions keep no dtype or residue
code of their own.

bilinear is the one exact sparse bilinear product, sum_ij u_i v_j t[i][j]:
an algebra's multiplication and both sides of an action are calls to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .fields import Field, Scalar

Vector = tuple  # tuple of scalars

# A tall input (more nonzero rows than columns) with at least this many
# cells takes the certified front end of Matrix.rref: from 1024 over Q,
# where each exact step takes gcds of big integers, and from 4096 over
# GF(p).  The module docstring gives the timings behind both.
TALL_CELLS_Q, TALL_CELLS_GF = 1024, 4096
# the largest prime below 2^26: rows are selected mod it over Q
SELECT_PRIME = 67108859
# sketch rows beyond the width over GF(p)
_SKETCH_EXTRA = 4


class LinAlgError(ValueError):
    pass


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_neg(field: Field, u: Vector) -> Vector:
    return tuple(field.neg(a) for a in u)


def vec_scale(field: Field, s: Scalar, u: Vector) -> Vector:
    return tuple(field.mul(s, a) for a in u)


def vec_zero(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def vec_is_zero(field: Field, u: Vector) -> bool:
    return all(a == field.zero for a in u)


def basis_vector(field: Field, n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise LinAlgError(f"basis index {i} out of range for dimension {n}")
    return tuple(field.one if j == i else field.zero for j in range(n))


@dataclass(frozen=True)
class Matrix:
    field: Field
    rows: tuple

    def __post_init__(self):
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise LinAlgError("ragged rows")

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence[Scalar]]) -> "Matrix":
        return cls(field, tuple(tuple(r) for r in rows))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, tuple((field.zero,) * ncols for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def _check_same_field(self, other: "Matrix"):
        if self.field != other.field:
            raise LinAlgError(f"field mismatch: {self.field} vs {other.field}")

    def add(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in add")
        f = self.field
        return Matrix(f, tuple(vec_add(f, a, b) for a, b in zip(self.rows, other.rows)))

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in sub")
        f = self.field
        return Matrix(f, tuple(vec_sub(f, a, b) for a, b in zip(self.rows, other.rows)))

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix(f, tuple(vec_neg(f, r) for r in self.rows))

    def matmul(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch in matmul")
        f = self.field
        ocols = list(zip(*other.rows)) if other.rows else []
        out = []
        for r in self.rows:
            out.append(tuple(_dot(f, r, c) for c in ocols))
        return Matrix(f, tuple(out))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.matmul(other)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise LinAlgError("shape mismatch in apply")
        f = self.field
        return tuple(_dot(f, r, v) for r in self.rows)

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices."""
        f, nc, p = self.field, self.ncols, self.field.p
        # row scaling keeps the row space; zero rows change nothing
        rows = [clear_denominators(row)[1] if p is None else list(row) for row in self.rows]
        rows = [row for row in rows if any(row)]
        red = None
        if len(rows) > nc and len(rows) * nc >= (TALL_CELLS_Q if p is None else TALL_CELLS_GF):
            red = _tall_rref_q(rows, nc) if p is None else _tall_rref_mod(f, rows, nc)
        if red is None:
            red = rows, _gauss_jordan(rows, nc, p)
        rows, pivots = red
        zero = f.zero
        if p is None:
            out = [tuple(Fraction(x, rows[r][c]) if x else zero for x in rows[r])
                   for r, c in enumerate(pivots)]
        else:
            out = [tuple(rows[r]) for r in range(len(pivots))]
        out += [(zero,) * nc] * (self.nrows - len(pivots))
        return Matrix(f, tuple(out)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_space(self) -> "Matrix":
        """Canonical basis (RREF nonzero rows) of the span of the rows."""
        red, piv = self.rref()
        return Matrix(self.field, red.rows[: len(piv)])

    def nullspace(self) -> "Matrix":
        """Canonical RREF basis of {x : self @ x = 0}, rows are basis vectors."""
        f = self.field
        red, piv = self.rref()
        nc = self.ncols
        pivset = set(piv)
        free = [c for c in range(nc) if c not in pivset]
        basis = []
        for fc in free:
            v = [f.zero] * nc
            v[fc] = f.one
            for r, pc in enumerate(piv):
                v[pc] = f.neg(red.rows[r][fc])
            basis.append(tuple(v))
        return Matrix(f, tuple(basis)).row_space()

    def solve(self, b: Vector) -> Optional[Vector]:
        """One solution x of self @ x = b, or None if inconsistent."""
        f = self.field
        if len(b) != self.nrows:
            raise LinAlgError("shape mismatch in solve")
        aug = Matrix(f, tuple(r + (bv,) for r, bv in zip(self.rows, b)))
        if not self.rows:
            return ()
        red, piv = aug.rref()
        nc = self.ncols
        if nc in piv:
            return None
        x = [f.zero] * nc
        for r, pc in enumerate(piv):
            x[pc] = red.rows[r][nc]
        return tuple(x)


def _gauss_jordan(rows: list, nc: int, p: Optional[int]) -> list:
    """Eliminate the nonzero integer rows in place, as in the module
    docstring, and return the pivot columns: rows[r] is then the pivot row of
    pivots[r], over Q a primitive integer row whose RREF row is
    rows[r] / rows[r][pivots[r]], over GF(p) the RREF row itself."""
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == len(rows):
            break
        pin = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pin is None:
            continue
        rows[r], rows[pin] = rows[pin], rows[r]
        if p is None:
            prow = rows[r]
            a = prow[c]
            for i, row in enumerate(rows):
                s = row[c]
                if s and i != r:
                    g = math.gcd(a, s)
                    ag, sg = a // g, s // g
                    row = [ag * x - sg * y for x, y in zip(row, prow)]
                    g = math.gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
        else:
            iv = pow(rows[r][c], -1, p)
            prow = rows[r] = [x * iv % p for x in rows[r]]
            support = [(j, y) for j, y in enumerate(prow) if y]
            for i, row in enumerate(rows):
                s = row[c]
                if s and i != r:
                    for j, y in support:
                        row[j] = (row[j] - s * y) % p
        pivots.append(c)
    return pivots


def _tall_rref_mod(field: Field, rows: list, nc: int):
    """(RREF rows, pivots) of the n > nc nonzero rows over GF(p), or None
    when the float64 rung does not hold at this shape and prime.

    k = nc + _SKETCH_EXTRA pseudo-random combinations of the rows are
    eliminated mod p, and one matmul checks that every row lies in the span
    of the result B: X == X[:, pivots] @ B mod p.  Rows that escape join B
    and one more elimination gives the RREF of the whole row space."""
    p, n = field.p, len(rows)
    # the sketch product, the elimination and the check stay below n p max(big, p)
    x = integer_array(field, rows, (n, nc), lambda big: big + n * p * max(big, p))[1]
    if x.dtype != np.float64:
        return None
    m = _sketch(min(n, nc + _SKETCH_EXTRA), n, p) @ x
    pivots = _rref_mod(m, p)[0]
    if len(pivots) < nc:  # else the whole space: nothing can escape
        escaped = nonzero_mod(x - x[:, pivots] @ m[:len(pivots)], p).any(axis=1)
        if escaped.any():
            m = np.vstack([m[:len(pivots)], x[escaped]])
            pivots = _rref_mod(m, p)[0]
    return python_ints(m[:len(pivots)], p), pivots


def _tall_rref_q(rows: list, nc: int) -> tuple[list, list]:
    """(eliminated rows, pivots) as _gauss_jordan returns them, for the n > nc
    nonzero integer rows over Q.

    Elimination mod SELECT_PRIME picks rows independent mod that prime,
    hence over Q; only those <= nc rows are eliminated exactly.  Their RREF
    B = V / mu, V integer and mu the lcm of the pivots, must then satisfy
    mu X == X[:, pivots] @ V for every row of X, checked by one integer
    matmul on the rung that holds it.  Rows that escape join the eliminated
    rows and the exact loop runs once more."""
    n = len(rows)
    x = _int_array(rows, (n, nc))
    selected, order = _rref_mod(exact_ints(x, SELECT_PRIME).astype(np.float64), SELECT_PRIME)
    basis = [rows[i] for i in order[:len(selected)]]
    pivots = _gauss_jordan(basis, nc, None)
    r = len(pivots)
    if r == nc:  # the whole space: nothing can escape
        return basis, pivots
    heads = [basis[i][c] for i, c in enumerate(pivots)]
    mu = math.lcm(*heads)
    v = [[y * (mu // a) for y in row] for row, a in zip(basis, heads)]
    big_v = max((abs(y) for row in v for y in row), default=0)
    big_x = max(int(x.max()), -int(x.min()))
    dtype = rung(big_x * (r * big_v + mu))
    x = x.astype(dtype)
    v = np.array(v, dtype=object).reshape(r, nc).astype(dtype)
    escaped = np.flatnonzero(((mu * x - x[:, pivots] @ v) != 0).any(axis=1))
    if not escaped.size:
        return basis, pivots
    basis = basis[:r] + [rows[i] for i in escaped]
    return basis, _gauss_jordan(basis, nc, None)


def _sketch(k: int, n: int, p: int) -> np.ndarray:
    """A k x n Toeplitz matrix of residues mod p as float64: entry (i, j) is
    a splitmix64 hash of i + j, reduced mod p.  Integer arithmetic only, so
    the result never changes and numpy.random is never imported."""
    z = np.arange(1, k + n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    h = (z % np.uint64(p)).astype(np.float64)
    return np.lib.stride_tricks.sliding_window_view(h, n)[:k]


def _rref_mod(m: np.ndarray, p: int) -> tuple[list, list]:
    """Gauss-Jordan elimination mod p of the integer-valued float64 array m,
    |m| < 2^53, in place, with lazy reduction: (pivots, order).  The first
    len(pivots) rows of m are then the RREF mod p as centred residues, and
    the input rows order[:len(pivots)] span the same space mod p.

    Entries are reduced only when a bound on them would reach 2^53.  Each
    step reduces the whole pivot column, the rows above the pivot included,
    and the pivot row; the rank-1 update then adds at most half^2 to any
    entry, half bounding a centred residue."""
    k, nc = m.shape
    half = p // 2 + 1
    _centre(m, p)
    top = half
    order = list(range(k))
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == k:
            break
        col = m[:, c]
        _centre(col, p)
        nz = np.flatnonzero(col[r:])
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            order[r], order[i] = order[i], order[r]
        prow = m[r]  # prow[c] is reduced with the column
        if top * half >= 2 ** 53:
            _centre(prow, p)
        iv = pow(int(prow[c]), -1, p)
        prow *= iv - p if iv > p // 2 else iv
        _centre(prow, p)
        if top + half * half >= 2 ** 53:
            _centre(m, p)
            top = half
        factors = col.copy()
        factors[r] = 0
        m[:, c + 1:] -= np.outer(factors, prow[c + 1:])
        col[:] = 0
        col[r] = 1
        top += half * half
        pivots.append(c)
    _centre(m, p)
    return pivots, order


def _dot(f: Field, u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    acc = f.zero
    for a, b in zip(u, v):
        if a != f.zero and b != f.zero:
            acc = f.add(acc, f.mul(a, b))
    return acc


def bilinear(field: Field, tensor, u: Vector, v: Vector, dim: int) -> Vector:
    """sum_ij u[i] v[j] tensor[i][j], a vector of length dim; zero
    coefficients are skipped, so sparse inputs cost little."""
    f = field
    out = [f.zero] * dim
    for i, a in enumerate(u):
        if a == f.zero:
            continue
        for j, b in enumerate(v):
            if b == f.zero:
                continue
            s = f.mul(a, b)
            for k, c in enumerate(tensor[i][j]):
                if c != f.zero:
                    out[k] = f.add(out[k], f.mul(s, c))
    return tuple(out)


def reduce_by_rref_rows(basis: Matrix, pivots: tuple[int, ...],
                        target: Vector) -> tuple[Vector, Vector]:
    """(coeffs, residual) of target against RREF basis rows.

    Because the rows are in RREF, the coordinate of row r is just
    target[pivots[r]]; the residual is target minus that combination, zero
    exactly when target lies in the span.
    """
    f = basis.field
    coeffs = tuple(target[p] for p in pivots)
    residual = list(target)
    for c, row in zip(coeffs, basis.rows):
        if c != f.zero:
            for j, x in enumerate(row):
                if x != f.zero:
                    residual[j] = f.sub(residual[j], f.mul(c, x))
    return coeffs, tuple(residual)


def express_in_rref_rows(basis: Matrix, pivots: tuple[int, ...], target: Vector) -> Optional[Vector]:
    """Coordinates of target in the span of RREF basis rows, or None."""
    coeffs, residual = reduce_by_rref_rows(basis, pivots, target)
    return None if any(x != basis.field.zero for x in residual) else coeffs


def clear_denominators(values: Sequence[Scalar]) -> tuple[int, list[int]]:
    """lam, the lcm of the denominators, and lam * values as ints."""
    lam = math.lcm(*{x.denominator for x in values})
    return lam, [x.numerator * (lam // x.denominator) for x in values]


# ---------------------------------------------------------------------------
# integer arrays: the rung rule


def rung(top: int):
    """The cheapest dtype that holds every integer of magnitude below top
    exactly: float64 below 2^53 (every product and partial sum is then an
    integer that float64 holds exactly, in any summation order, so matmul
    can run as BLAS dgemm), int64 below 2^63, and Python ints (an object
    array) beyond."""
    return np.float64 if top < 2 ** 53 else np.int64 if top < 2 ** 63 else object


def _int_array(values, shape) -> np.ndarray:
    """Python ints as an int64 array, or an object array when one is beyond
    int64."""
    try:
        return np.array(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def magnitude(arr: np.ndarray) -> int:
    """The largest magnitude in an integer-valued array, 0 if it is empty."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def integer_array(field: Field, values, shape, bound: Callable[[int], int]):
    """(lam, lam * values) as a numpy array of the given shape, values nested
    sequences of scalars and lam the lcm of their denominators (1 over GF(p),
    whose scalars are ints, taken as they are: they need not lie in [0, p)).

    bound(big) is the caller's bound on the magnitude of everything it will
    compute from the array, given big, the largest magnitude in it; the
    dtype is rung(bound(big)), so all of that stays exact.
    """
    lam = 1
    if field.p is None:
        lam, values = clear_denominators(np.array(values, dtype=object).ravel())
    ints = _int_array(values, shape)  # object only if the bound is past int64 too
    return lam, ints.astype(rung(bound(magnitude(ints))), copy=False)


def exact_dtype(p: Optional[int], dtype) -> np.dtype:
    """The narrowest dtype holding exact_ints(arr, p) for arr of this dtype:
    over GF(p) the unsigned one holding p - 1 (object past uint64), over Q
    int64, or object with arr."""
    if p is not None:
        return np.min_scalar_type(p - 1)
    return np.dtype(object if dtype == object else np.int64)


def exact_ints(arr: np.ndarray, p: Optional[int] = None) -> np.ndarray:
    """An integer-valued array on any rung as exact integers, int64 or
    Python ints, reduced into [0, p) when p is set: float64, below 2^53 by
    the rung rule, is cast to int64 first, and a p past int64 reduces
    Python ints."""
    if arr.dtype == np.float64:
        arr = arr.astype(np.int64)
    if p is not None:
        if p >= 2 ** 63 and arr.dtype != object:
            arr = arr.astype(object)
        arr = arr % p
    return arr


def python_ints(arr: np.ndarray, p: Optional[int] = None) -> list:
    """The entries of an integer-valued array on any rung as nested lists
    of Python ints, reduced into [0, p) when p is set.  Every value leaving
    numpy for exact code goes through here, so no float or numpy scalar
    reaches a Matrix, a Report or the JSON output."""
    return exact_ints(arr, p).tolist()


def _multiple_near(acc: np.ndarray, p: int) -> np.ndarray:
    """p * rint(acc / p) for an integer-valued float64 array, |acc| < 2^53:
    equal to acc exactly when p divides acc (the quotient of a multiple of p
    is exact, and any other rounded quotient gives a product that differs
    from acc), and otherwise within p/2 + 1 of it.  It takes about a third
    of the time of np.remainder on float64."""
    q = np.divide(acc, p)
    np.rint(q, out=q)
    q *= p
    return q


def _centre(acc: np.ndarray, p: int) -> None:
    """Reduce the float64 array acc mod p in place, each entry to a residue
    of magnitude at most p // 2 + 1."""
    acc -= _multiple_near(acc, p)


def nonzero_mod(acc: np.ndarray, p: Optional[int]) -> np.ndarray:
    """acc != 0 (mod p, if p is set) as a bool array.  On float64 the test
    is acc != _multiple_near(acc, p), exact for integer-valued |acc| < 2^53,
    which integer_array's bound guarantees, whatever p: past 2^53 the
    rounded quotient is 0 or +-1, and only acc == 0 meets its product."""
    if p is None:
        return acc != 0
    if acc.dtype != np.float64:
        return exact_ints(acc, p) != 0
    return acc != _multiple_near(acc, p)
