"""Dense exact linear algebra over the fields in :mod:`artifact.fields`.

A Matrix is immutable and holds its entries twice: ints, den times them as
one exact integer array (int64 or Python ints, residues over GF(p) where
den is 1), and rows, row-major tuples of field scalars.  Every method that
computes reads the array alone, so a matrix has one shape, one scaling and
one elimination path.  Matrix.from_rows keeps the rows as given and converts
them once, by the rule of scaled: over GF(p) reduced mod p, over Q times
the lcm of their denominators.  Matrix.from_ints is the array entry, as the
constraint assembly of constructions builds it (over Q its rows are the
integers as they are, lam times the values), and from_quotient makes the
matrix v / den of an integer array; their rows are built on first read.
The lazy field descriptor is that mechanism, and the action and algebra
types of the other modules use it too.  Equality and hashing are
those of the rows.  The outputs of rref and nullspace hold their integer
array and denominator, so an elimination that only feeds another array
computation never makes a field scalar.

Row reduction is one Gauss-Jordan elimination on rows of Python ints for
both fields, with the first nonzero pivot rule, which makes every output
deterministic.  Over Q the rows are the integers of the array (scaling
keeps the row space), eliminated fraction-free as in Bareiss (1968),
row_i <- a*row_i - s*row_r, except that the new row is divided by the gcd
of its entries rather than by the previous pivot, and a pivot row by its
own gcd when it is chosen, which keeps every pivot row primitive.  Over
GF(p) the pivot row is scaled by its inverse and an update touches only its
nonzero columns.  Every route to the RREF, this loop and the two front ends
below, ends the same way, in (V, den, pivots):
V the nonzero RREF rows as integers, den 1 over GF(p) and over Q mu, the
least common denominator of the RREF: the lcm of the pivot entries, each
primitive pivot row scaled to mu.  rref wraps that once as the matrix
V / den, so its output has rank rows and no zero row.  The RREF is unique,
so nullspace and span bases are canonical and two equal subspaces always
produce identical basis matrices, comparable with ==.  The output is in
Fractions over Q whatever the scale of the input's integers.  rref drops
zero rows with one mask, hands a tall input to the front end below as it
is, and a small one to the loop as lists.  The nullspace's RREF is read
off the RREF of the columns in reverse order with no second elimination
(Matrix.nullspace gives the argument).

A subspace of F^n is its RREF Matrix, which carries its pivot columns: its
rows are the canonical basis, ncols is n and nrows the dimension, and its
rref is itself, so a span of it costs no elimination.  An empty span keeps
its width in the array's shape, (0, n).  The actor candidate of
constructions and the annihilator, derived subspace and ideals of algebra
are such matrices, and coordinates, residuals and membership are read off
at the pivots with no elimination, by residual, contains and coords, which
refuse a matrix that carries no pivots.

Tall inputs, more than ncols + _SKETCH_EXTRA nonzero rows (constraint
systems are tall and redundant: 648 x 72 of rank 21-66 over GF(5)), go
through a certified front end first, a float64 Gauss-Jordan mod a prime with
lazy reduction in the manner of FFLAS-FFPACK (Dumas, Giorgi & Pernet 2008),
run on the transpose so that every step reads and updates contiguous rows.
Every front-end route has one contract: it returns an RREF that
outside_span (its docstring gives the proof) certified against every input
row, or None, and on None rref runs the exact loop above, its one fallback.
The sketch is ncols + _SKETCH_EXTRA pseudo-random combinations of the rows (a
Toeplitz matrix hashed by integer arithmetic), so shorter than the input,
eliminated only while the float64 rung holds: every sketch entry, kernel
entry and check entry is below n p max|x| < 2^53.
  * Over GF(p) the sketch is eliminated mod p, giving B.  span(B) lies
    inside the row space, and the certificate checks the reverse inclusion.
  * Over Q the sketch is eliminated mod SELECT_PRIME, and mod SECOND_PRIME
    when that image is not enough.  V / mu is rebuilt from the images by
    rational reconstruction with a denominator per row (Wang, Guy &
    Davenport 1982) and Garner's CRT, and the certificate proves it the RREF
    (_tall_rref_q gives the argument).  Past the float64 bound, when a
    rebuild gives up, or when a row escapes, elimination mod SELECT_PRIME of
    the rows themselves picks at most ncols rows independent mod that prime,
    hence over Q; the exact loop eliminates only those, and the certificate
    follows.
So the output is the unique RREF on every input, whatever the prime or the
sketch.  For small, wide or near-square inputs, and over GF(p) past the
bound, the loop runs alone.  Crossover, one BLAS thread, per call, median
of 12 constraint matrices of the actor workloads per shape, loop -> front
end: over GF(5) 27 x 9 0.07 -> 0.25 ms, 64 x 16 0.11 -> 0.21 ms and
81 x 18 0.14 -> 0.27 ms (so small inputs keep the loop), 125 x 25
0.43 -> 0.31 ms, 192 x 32 0.69 -> 0.46 ms, 216 x 36 1.46 -> 0.50 ms,
375 x 50 4.3 -> 1.09 ms and 648 x 72 12.8 -> 1.8 ms, hence
TALL_CELLS_GF = 2048; over Q, where the
loop's gcds of big integers cost more, 27 x 9 0.13 -> 0.19 ms (144-243
nonzero cells), 64 x 16 0.55 -> 0.35 ms (720-1024 cells), 81 x 18
0.73 -> 0.31 ms, 125 x 25 6.1 -> 1.35 ms (the two of that shape) and
192 x 32 9.6 -> 0.60 ms, hence TALL_CELLS_Q = 256 (Intel Xeon, numpy 2.4
with OpenBLAS, a shared 2-core host).

The integer rung rule is written here, once: integer_array puts lam times
a nested list of scalars on the cheapest exact numpy dtype (rung), float64
while the caller's bound stays below 2^53, then int64, then Python ints.
So is the residue rule: exact_ints takes an array on any rung to exact
integers, reduced into [0, p) over GF(p), never by a float remainder nor in
a dtype too narrow for p, so every prime field_from_json accepts gets the
same exact answer.  nonzero_mod and scalar_tuples (exact integers over a
denominator as field scalars, the way back to exact code) are built on it,
so no float or numpy scalar reaches a Matrix, a Report or the JSON output;
algebra and constructions keep no dtype or residue code of their own.  So
is the lowest-terms rule: lowest_terms divides an integer array and its
den by their gcd, for Matrix.scaled and for the constants of
constructions.semidirect_tensor.

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

# A tall input (more than ncols + _SKETCH_EXTRA nonzero rows) with at least
# this many cells takes the certified front end of Matrix.rref: from 256
# over Q, where each exact step takes gcds of big integers, and from 2048
# over GF(p).  The module docstring gives the timings behind both.
TALL_CELLS_Q, TALL_CELLS_GF = 256, 2048
# the largest prime below 2^26: rows are selected mod it over Q
SELECT_PRIME = 67108859
# the next prime below it: a tall Q RREF's second image, so that
# SELECT_PRIME * SECOND_PRIME < 2^52
SECOND_PRIME = 67108837
# sketch rows beyond the width; an input is tall only with more rows than
# its sketch
_SKETCH_EXTRA = 4


class LinAlgError(ValueError):
    pass


def vec_add(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.add(a, b) for a, b in zip(u, v))


def vec_sub(field: Field, u: Vector, v: Vector) -> Vector:
    return tuple(field.sub(a, b) for a, b in zip(u, v))


def vec_neg(field: Field, u: Vector) -> Vector:
    return tuple(field.neg(a) for a in u)


def vec_zero(field: Field, n: int) -> Vector:
    return (field.zero,) * n


def vec_is_zero(field: Field, u: Vector) -> bool:
    return all(a == field.zero for a in u)


def basis_vector(field: Field, n: int, i: int) -> Vector:
    if not 0 <= i < n:
        raise LinAlgError(f"basis index {i} out of range for dimension {n}")
    return tuple(field.one if j == i else field.zero for j in range(n))


_NO_DEFAULT = object()


class lazy:
    """A dataclass field that may be given as a function of no arguments,
    a view of data its instance holds in another form: the first read calls
    the function and keeps what it returns, so a view nobody reads is never
    built.  Any other value is kept as it is.  lazy(default) gives the field
    a default."""

    def __init__(self, default=_NO_DEFAULT):
        self.default = default

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:  # read on the class: the dataclass's default
            if self.default is _NO_DEFAULT:
                raise AttributeError(self.name)
            return self.default
        value = obj.__dict__[self.name]
        if callable(value):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _scalar_rows(field: Field, den: int, rows: list, memo: Optional[dict] = None) -> tuple:
    """Rows of Python ints over den as tuples of field scalars: over GF(p),
    where den is 1, the ints themselves; over Q, Fractions, each value made
    once per memo."""
    if field.p is not None:
        return tuple(map(tuple, rows))
    memo = {} if memo is None else memo
    zero, get = field.zero, memo.get
    return tuple(tuple([zero if not x else get(x) or memo.setdefault(x, Fraction(x, den))
                        for x in row]) for row in rows)


def scalar_tuples(field: Field, den: int, ints: np.ndarray) -> tuple:
    """ints / den as nested tuples of field scalars, ints an exact integer
    array of any positive rank (reduced mod p over GF(p), where den is 1)."""
    memo = {}

    def walk(x, depth):
        if depth == 2:
            return _scalar_rows(field, den, x, memo)
        return tuple(walk(y, depth - 1) for y in x)

    if ints.ndim == 1:
        return walk([ints.tolist()], 2)[0]
    return walk(ints.tolist(), ints.ndim)


@dataclass(frozen=True, eq=False, init=False)
class Matrix:
    field: Field
    rows: tuple = lazy()
    # den times the entries as a 2-D exact integer array, int64 or Python
    # ints, reduced mod p over GF(p), where den is 1
    ints: np.ndarray
    den: int = 1
    # the pivot columns of a matrix known to be in RREF: its rref is itself
    pivots: Optional[tuple] = None

    def __init__(self, field: Field, rows, ints: np.ndarray, den: int = 1, pivots=None):
        # written into the instance directly: the frozen dataclass __init__
        # takes twice as long, and the sampler builds small matrices by the
        # thousand
        vars(self).update(field=field, rows=rows, ints=ints, den=den, pivots=pivots)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence[Scalar]]) -> "Matrix":
        """The matrix of rows of scalars, kept as given, and converted once
        to its integers by the rule of scaled: over GF(p) reduced mod p,
        over Q lam times the rows, den = lam the lcm of their denominators
        (a Python int is a rational of denominator 1)."""
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise LinAlgError("ragged rows")
        flat = [x for row in rows for x in row]
        lam, flat = (1, flat) if field.p is not None else clear_denominators(flat)
        return cls(field, rows, exact_ints(_int_array(flat, (len(rows), ncols)), field.p), lam)

    @classmethod
    def from_ints(cls, field: Field, arr: np.ndarray) -> "Matrix":
        """The matrix of a 2-D integer-valued array on any rung: over GF(p)
        its residues, over Q its integers as they are (rows of ints, which
        rref takes as lam times their values)."""
        ints = exact_ints(arr, field.p)
        return cls(field, lambda: tuple(map(tuple, ints.tolist())), ints)

    @classmethod
    def from_quotient(cls, field: Field, v, den: int, ncols: Optional[int] = None,
                      pivots: Optional[Sequence[int]] = None) -> "Matrix":
        """The matrix v / den: v an exact integer array (reduced mod p over
        GF(p), where den is 1) or lists of Python ints, ncols the width of
        an empty list."""
        if not isinstance(v, np.ndarray):
            v = _int_array(v, (len(v), len(v[0]) if v else ncols))
        return cls(field, lambda: _scalar_rows(field, den, v.tolist()), v, den,
                   None if pivots is None else tuple(pivots))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, tuple((field.zero,) * ncols for _ in range(nrows)),
                   np.zeros((nrows, ncols), np.int64))

    @property
    def nrows(self) -> int:
        return self.ints.shape[0]

    @property
    def ncols(self) -> int:
        return self.ints.shape[1]

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
        return Matrix.from_rows(f, (vec_add(f, a, b) for a, b in zip(self.rows, other.rows)))

    def sub(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise LinAlgError("shape mismatch in sub")
        f = self.field
        return Matrix.from_rows(f, (vec_sub(f, a, b) for a, b in zip(self.rows, other.rows)))

    def neg(self) -> "Matrix":
        f = self.field
        return Matrix.from_rows(f, (vec_neg(f, r) for r in self.rows))

    def matmul(self, other: "Matrix") -> "Matrix":
        self._check_same_field(other)
        if self.ncols != other.nrows:
            raise LinAlgError("shape mismatch in matmul")
        f = self.field
        ocols = list(zip(*other.rows)) if other.rows else []
        out = []
        for r in self.rows:
            out.append(tuple(_dot(f, r, c) for c in ocols))
        return Matrix.from_rows(f, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return self.matmul(other)

    def apply(self, v: Vector) -> Vector:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise LinAlgError("shape mismatch in apply")
        f = self.field
        return tuple(_dot(f, r, v) for r in self.rows)

    def scaled(self) -> tuple[int, np.ndarray]:
        """(lam, lam * self) as an exact integer array, lam the lcm of the
        entries' denominators: den over gcd(den, every entry), 1 over
        GF(p)."""
        return lowest_terms(self.den, self.ints)

    def _reversed(self) -> "Matrix":
        """The matrix with its columns in reverse order."""
        return Matrix(self.field, lambda: tuple(row[::-1] for row in self.rows),
                      self.ints[:, ::-1], self.den)

    def rref(self) -> "Matrix":
        """The nonzero rows of the RREF, which carries its pivot columns:
        rank rows of the input's width (0 rows for an all-zero or empty
        input).  Every elimination route gives (V, den, pivots), V those
        rows as integers over den, wrapped here once by from_quotient."""
        if self.pivots is not None:
            return self
        p, x = self.field.p, self.ints
        nc = x.shape[1]
        # row scaling keeps the row space, and zero rows change nothing
        x = x[(x != 0).any(axis=1)]
        n = len(x)
        red = None
        if n > nc + _SKETCH_EXTRA and n * nc >= (TALL_CELLS_Q if p is None else TALL_CELLS_GF):
            red = _tall_rref_q(x) if p is None else _tall_rref_mod(x, p)
        if red is None:
            red = _gauss_jordan(x.tolist(), nc, p)
        v, den, pivots = red
        return Matrix.from_quotient(self.field, v, den, nc, pivots)

    def rank(self) -> int:
        return len(self.rref().pivots)

    def nullspace(self) -> "Matrix":
        """Canonical RREF basis of {x : self @ x = 0}, rows are basis vectors.

        It is read off V / mu, the RREF of the columns taken in reverse
        order, with no second elimination.  Back in the original order, row
        r of V ends at its pivot t_r, and V[r, t_s] = mu [r = s].  For each
        other column j (the free ones), mu e_j - sum_r V[r, j] e_(t_r) lies
        in the nullspace, and it starts at j, as V[r, j] != 0 only for
        j < t_r.  So these rows, over mu, in order of j, are the RREF of the
        nullspace, with pivots the free columns."""
        f, nc = self.field, self.ncols
        red = self._reversed().rref()
        ends = [nc - 1 - c for c in red.pivots]
        free = _free_columns(nc, ends)
        v = exact_ints(-red.ints[:, ::-1][:, free].T, f.p)
        basis = np.zeros((len(free), nc), v.dtype)
        basis[range(len(free)), free] = red.den
        basis[:, ends] = v
        return Matrix.from_quotient(f, basis, red.den, pivots=free)

    def residual(self, v: Vector) -> Vector:
        """v minus its combination of the rows of this RREF at the
        coordinates v[pivots]: zero exactly when v lies in the row space.
        residual, contains and coords are scalar loops on purpose, the test
        oracle of outside_span, and read an RREF alone."""
        if self.pivots is None:
            raise LinAlgError("residual, contains and coords need an RREF matrix")
        f = self.field
        out = list(v)
        for p, row in zip(self.pivots, self.rows):
            c = v[p]
            if c != f.zero:
                for j, x in enumerate(row):
                    if x != f.zero:
                        out[j] = f.sub(out[j], f.mul(c, x))
        return tuple(out)

    def contains(self, v: Vector) -> bool:
        return vec_is_zero(self.field, self.residual(v))

    def coords(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v in the rows of this RREF, or None if v is
        outside their span."""
        return tuple(v[p] for p in self.pivots) if self.contains(v) else None


def _gauss_jordan(rows: list, nc: int, p: Optional[int]) -> tuple[list, int, list]:
    """(V, den, pivots), V / den the nonzero RREF rows as lists of ints, for
    the nonzero integer rows, eliminated in place as in the module docstring.
    rows[r] is then the pivot row of pivots[r]: over GF(p) the RREF row
    itself, so V is rows[:r] and den 1; over Q a primitive integer row, and
    V scales each to mu, the lcm of the pivot entries, with den = mu.  A
    primitive row is its RREF row times its pivot entry a and no more, so a
    is that row's least common denominator and mu the RREF's."""
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
            # primitive from the start: a row chosen before any update keeps
            # its content otherwise, and mu is then no least denominator
            g = math.gcd(*rows[r])
            prow = rows[r] = [x // g for x in rows[r]] if g > 1 else rows[r]
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
    if p is not None:
        return rows[:len(pivots)], 1, pivots
    heads = [rows[i][c] for i, c in enumerate(pivots)]
    mu = math.lcm(*heads)
    return [[y * (mu // a) for y in row] for row, a in zip(rows, heads)], mu, pivots


def _tall_rref_mod(x: np.ndarray, p: int):
    """(V, 1, pivots), V the nonzero RREF rows as residues, for the
    n > ncols + _SKETCH_EXTRA nonzero integer rows x over GF(p), or None
    when the float64 rung does not hold at this shape and prime or a row
    escapes.

    k = ncols + _SKETCH_EXTRA pseudo-random combinations of the rows are
    eliminated mod p to B, whose span lies inside the row space, and
    outside_span checks every row against B: when none escapes, B is the
    RREF of the whole row space."""
    n, nc = x.shape
    # the sketch product, the elimination and the check stay below n p max(big, p)
    big = magnitude(x)
    x = x.astype(rung(big + n * p * max(big, p)), copy=False)
    if x.dtype != np.float64:
        return None
    m = _sketch(nc + _SKETCH_EXTRA, n, p) @ x
    pivots = _rref_mod(m, p)[0]
    if outside_span(x, 1, m[:len(pivots)], pivots, p).any():
        return None
    return exact_ints(m[:len(pivots)], p), 1, pivots


def _tall_rref_q(x: np.ndarray) -> Optional[tuple]:
    """(V, mu, pivots), V / mu the nonzero RREF rows as _gauss_jordan gives
    them, for the n > ncols + _SKETCH_EXTRA nonzero integer rows x over Q,
    an int64 or object array, or None when no route certifies them.

    While n SELECT_PRIME max|x| < 2^53, the sketch product S x of
    _tall_rref_mod is exact in float64, and the RREF is rebuilt from images
    of it: S x is eliminated mod SELECT_PRIME, and _rebuild_rref turns the r
    rows of that RREF into V / mu.  If it gives up, S x is eliminated mod
    SECOND_PRIME too; the pivots must be the same, and the rebuild runs again
    on both images.  V / mu is then certified by outside_span on every row
    of x, and the argument that it is the RREF runs:
      * V / mu has the RREF shape with the pivots mod SELECT_PRIME: each
        image row is 1 at its pivot and 0 at the other pivots and left of
        its pivot, so each row of V is mu and 0 there;
      * no row escaping gives rowspace_Q(x) within rowspace_Q(V);
      * rank_Q(x) >= rank_Q(S x) >= its rank mod SELECT_PRIME, r = rank V;
      * so the two row spaces are equal, and as the RREF is unique, V / mu
        is the RREF.
    mu is made least by lowest_terms, as _gauss_jordan's mu is.  Past the
    bound, on a give-up, on other pivots mod SECOND_PRIME or on a row that
    escapes, _select_rref_q answers instead."""
    n, nc = x.shape
    big = magnitude(x)
    if n * SELECT_PRIME * big < 2 ** 53:
        m = _sketch(nc + _SKETCH_EXTRA, n, SELECT_PRIME) @ x.astype(np.float64)
        first = m.copy()  # _rref_mod eliminates in place; m is kept for the second prime
        pivots = _rref_mod(first, SELECT_PRIME)[0]
        images = [exact_ints(first[:len(pivots)], SELECT_PRIME)]
        red = _rebuild_rref(images)
        if red is None and _rref_mod(m, SECOND_PRIME)[0] == pivots:
            images.append(exact_ints(m[:len(pivots)], SECOND_PRIME))
            red = _rebuild_rref(images)
        if red is not None:
            mu, v = red
            if not _outside_rref_q(x, mu, v, pivots).any():
                return v, mu, pivots
    return _select_rref_q(x)


def _rebuild_rref(images: list) -> Optional[tuple[int, np.ndarray]]:
    """(mu, V): the rationals V / mu in lowest terms whose residues are the
    r x ncols int64 arrays images, mod SELECT_PRIME and, with a second
    image, mod SECOND_PRIME; or None when a row needs a denominator past
    B = isqrt(M / 2), M the product of the primes.

    Each row r has a denominator d_r, at first 1.  While d_r times the row,
    combined by Garner's CRT (Knuth, TAOCP vol. 2, 4.3.2) and centred
    mod M, has an entry c past B, Wang's half-extended Euclid on (M, c)
    gives the t with t c = s (mod M), |s| <= B, and d_r grows by |t| >= 2
    (Wang, Guy & Davenport 1982).  When no entry is past B, V is each row
    times mu / d_r, mu = lcm(d_r).  Rationals of numerator and denominator
    at most B, 2 B^2 < M, are unique by their residue, so the true row is
    found if its own are; a wrong guess is caught by the certificate of
    _tall_rref_q, which alone makes the result exact."""
    primes = (SELECT_PRIME, SECOND_PRIME)[:len(images)]
    mod = math.prod(primes)
    bound = math.isqrt(mod // 2)
    d = [1] * len(images[0])
    while True:
        # d_r <= B < either prime, so each product stays below 2^52
        scale = np.array(d, np.int64)[:, None]
        s = images[0] * scale % SELECT_PRIME
        if len(images) == 2:
            t = (images[1] * scale - s) % SECOND_PRIME
            s += SELECT_PRIME * (t * pow(SELECT_PRIME, -1, SECOND_PRIME) % SECOND_PRIME)
        s[s > mod // 2] -= mod
        over = np.abs(s) > bound
        rows = over.any(axis=1).nonzero()[0]
        if not rows.size:
            break
        for i, j in zip(rows.tolist(), over[rows].argmax(axis=1).tolist()):
            d[i] *= _wang_denominator(int(s[i, j]) % mod, mod, bound)
            if d[i] > bound:
                return None
    mu = math.lcm(*d)
    k = np.array([mu // e for e in d], object)[:, None]
    # |s k| <= B mu; past int64, the dtype is chosen from the values
    v = s * k.astype(np.int64) if bound * mu < 2 ** 63 else _int_array((s * k).tolist(), s.shape)
    return lowest_terms(mu, v)


def _wang_denominator(c: int, mod: int, bound: int) -> int:
    """|t| for the first remainder s <= bound of Euclid's algorithm on
    (mod, c), 0 <= c < mod, carrying only the cofactor t of c: t c = s
    (mod mod) throughout, so |t| is the denominator of the rational s / t
    that c reconstructs to."""
    r0, r1, t0, t1 = mod, c, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1)


def _select_rref_q(x: np.ndarray) -> Optional[tuple[list, int, list]]:
    """(V, mu, pivots) as _tall_rref_q gives them, by the exact loop, or
    None when a row escapes.

    Elimination mod SELECT_PRIME picks rows independent mod that prime,
    hence over Q; only those <= ncols rows are eliminated exactly, and
    outside_span checks every row against their RREF V / mu."""
    nc = x.shape[1]
    selected, order = _rref_mod(exact_ints(x, SELECT_PRIME).astype(np.float64), SELECT_PRIME)
    v, mu, pivots = _gauss_jordan(x[order[:len(selected)]].tolist(), nc, None)
    if _outside_rref_q(x, mu, _int_array(v, (len(pivots), nc)), pivots).any():
        return None
    return v, mu, pivots


def _outside_rref_q(x: np.ndarray, mu: int, v: np.ndarray, pivots: list) -> np.ndarray:
    """outside_span(x, mu, v, pivots) over Q, on the rung that holds mu x
    and x[pivots] @ v."""
    dtype = rung(magnitude(x) * (len(pivots) * magnitude(v) + mu))
    return outside_span(x.astype(dtype), mu, v.astype(dtype), pivots)


def outside_span(x: np.ndarray, den: int, v: np.ndarray, pivots: Sequence[int],
                 p: Optional[int] = None) -> np.ndarray:
    """Flags over the rows of the integer array x: which lie outside the row
    space of the RREF v / den, mod p when p is set (den is then 1).  This is
    the one span certificate, read by both tall front ends and by the
    closure of constructions.

    Row r of v is den at its pivot pivots[r] and 0 at every other pivot, so
    a combination c of the rows of v / den reads c at the pivots: a row x in
    the span is x[pivots] @ v / den, and den x == x[pivots] @ v holds exactly
    when x is in it.  At the pivot columns both sides are den x[pivots] on
    every row, so the test reads the free columns alone, and no row escapes
    an RREF without one.  The caller puts x and v on a rung that holds every
    value computed, den x and x[pivots] @ v at the free columns."""
    free = _free_columns(x.shape[1], pivots)  # none: every flag is False
    return nonzero_mod(den * x[:, free] - x[:, pivots] @ v[:, free], p).any(axis=1)


def _free_columns(nc: int, pivots: Sequence[int]) -> list:
    """The columns below nc that are not pivots, in order: the free columns
    of an RREF, which outside_span tests and Matrix.nullspace takes as the
    nullspace's pivots."""
    return sorted(set(range(nc)).difference(pivots))


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
    entry, half bounding a centred residue.  The elimination runs on a
    C-contiguous copy of m transposed, written back at the end: a column of
    m is then a contiguous row, and the rank-1 update of the columns right
    of the pivot one contiguous block.  Left of column c, rows r and below
    hold zeros but in the pivot columns, which are not read again and are
    set to their unit vectors at the end; so a swap and the pivot row start
    at column c."""
    k, nc = m.shape
    half = p // 2 + 1
    w = m.T.copy()  # w[c] is column c of m
    _centre(w, p)
    top = half
    order = list(range(k))
    pivots = []
    for c in range(nc):
        r = len(pivots)
        if r == k:
            break
        col = w[c]
        _centre(col, p)
        nz = col[r:].nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            w[c:, [r, i]] = w[c:, [i, r]]
            order[r], order[i] = order[i], order[r]
        prow = w[c:, r]  # prow[0] is reduced with the column
        if top * half >= 2 ** 53:
            _centre(prow, p)
        iv = pow(int(prow[0]), -1, p)
        prow *= iv - p if iv > p // 2 else iv
        _centre(prow, p)
        if top + half * half >= 2 ** 53:
            _centre(w, p)
            top = half
        col[r] = 0  # the factors: col is not read again
        w[c + 1:] -= prow[1:, None] * col
        top += half * half
        pivots.append(c)
    _centre(w, p)
    w[pivots] = 0
    w[pivots, range(len(pivots))] = 1
    m[:] = w.T
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
    """Python ints as an int64 array, or an object array when one is of
    magnitude 2^63 or more, so that negating any entry stays exact."""
    try:
        arr = np.array(values, dtype=np.int64).reshape(shape)
        if arr.size and arr.min() == -2 ** 63:
            raise OverflowError
        return arr
    except OverflowError:
        return np.array(values, dtype=object).reshape(shape)


def magnitude(arr: np.ndarray) -> int:
    """The largest magnitude in an integer-valued array, 0 if it is empty."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def lowest_terms(den: int, ints: np.ndarray) -> tuple[int, np.ndarray]:
    """ints / den over one denominator in lowest terms: (den / g, ints / g),
    g the gcd of den and every entry, and (1, ints) when every entry is 0.
    g is then at most any nonzero entry, so an int64 array stays int64; the
    array keeps its dtype and is returned as it is when g is 1."""
    if den == 1 or not ints.any():
        return 1, ints
    g = math.gcd(den, int(np.gcd.reduce(ints, axis=None)))
    return den // g, ints if g == 1 else ints // g


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
    # object only if the bound is past int64 too
    return lam, on_rung(_int_array(values, shape), bound)


def on_rung(ints: np.ndarray, bound: Callable[[int], int]) -> np.ndarray:
    """The exact integer array ints cast to rung(bound(big)), big its
    largest magnitude, as integer_array picks it."""
    return ints.astype(rung(bound(magnitude(ints))), copy=False)


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
    Python ints.

    A float64 array over a p below 2^53 skips int64's slow %: q = floor(x /
    p) is taken in float64 and x - q p in int64.  That q is exact: float64
    rounds a non-integer x / p onto an integer j only if the gap
    |x - j p| / p >= 1/p is at most half its spacing at j, at most
    |j| 2^-53, so only if |x - j p| <= |j p| 2^-53; for |x| < 2^53 that
    leaves x = +-(2^53 - 1) over p = 2 alone, and there j = +-2^52 is a
    power of two, with half that spacing on the side of x."""
    if arr.dtype == np.float64:
        if p is not None and p < 2 ** 53:
            q = np.divide(arr, p)
            qp = q.view(np.int64)  # floor(x / p) p, in place of the quotient
            np.floor(q, out=qp, casting="unsafe")
            qp *= p
            out = arr.astype(np.int64)
            out -= qp
            return out
        arr = arr.astype(np.int64)
    if p is not None:
        if p >= 2 ** 63 and arr.dtype != object:
            arr = arr.astype(object)
        arr = arr % p
    return arr


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
