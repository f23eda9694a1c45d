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

bilinear is the one exact sparse bilinear product, sum_ij u_i v_j t[i][j]:
an algebra's multiplication and both sides of an action are calls to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fields import Field, Scalar

Vector = tuple  # tuple of scalars


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

