"""Exact linear algebra, cross-checked against sympy.

sympy computes with its own elimination code (DomainMatrix over QQ and
GF(p)), which is a different implementation of the same math; ranks,
nullspace dimensions and whole reduced row echelon forms must agree with
ours on random inputs.
"""

import functools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import GF as sGF, QQ as sQQ, ZZ as sZZ
from sympy.polys.matrices import DomainMatrix

from artifact import linalg
from artifact.fields import GF, QQ
from artifact.linalg import LinAlgError, Matrix, basis_vector, vec_add

from conftest import solve

gf5 = GF(5)


def sympy_rank(field, rows):
    """Independent rank via sympy's DomainMatrix."""
    if field is QQ:
        dom = sQQ
        conv = lambda x: dom.convert(x)
    else:
        dom = sGF(field.p)
        conv = lambda x: dom.convert(int(x))
    n, m = len(rows), len(rows[0]) if rows else 0
    dm = DomainMatrix([[conv(x) for x in r] for r in rows], (n, m), dom)
    return dm.rank()


def rand_rows(rng, field, n, m):
    if field is QQ:
        return [[Fraction(rng.randrange(-4, 5)) for _ in range(m)] for _ in range(n)]
    return [[rng.randrange(field.p) for _ in range(m)] for _ in range(n)]


@pytest.mark.parametrize("field", [QQ, gf5])
def test_rank_matches_sympy_on_random_matrices(field):
    rng = random.Random(42)
    for _ in range(40):
        n, m = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = rand_rows(rng, field, n, m)
        ours = Matrix.from_rows(field, rows).rank()
        assert ours == sympy_rank(field, rows)


@pytest.mark.parametrize("field", [QQ, gf5])
def test_nullspace_dimension_and_membership(field):
    rng = random.Random(7)
    for _ in range(30):
        n, m = rng.randrange(1, 5), rng.randrange(1, 5)
        rows = rand_rows(rng, field, n, m)
        mat = Matrix.from_rows(field, rows)
        ns = mat.nullspace()
        # rank-nullity against the sympy rank
        assert ns.nrows == m - sympy_rank(field, rows)
        for i in range(ns.nrows):
            assert all(x == field.zero for x in mat.apply(ns.row(i)))


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        rows = rand_rows(rng, gf5, rng.randrange(1, 5), rng.randrange(1, 5))
        mat = Matrix.from_rows(gf5, rows)
        r1 = mat.rref()
        r2, piv1 = r1.rref(), r1.pivots
        assert r1.rows == r2.rows and piv1 == r2.pivots
        for k, j in enumerate(piv1):
            col = [r1.entry(i, j) for i in range(r1.nrows)]
            assert col[k] == gf5.one
            assert all(x == gf5.zero for i, x in enumerate(col) if i != k)


RREF_FIELDS = (GF(2), GF(3), GF(7), GF(4294967291), QQ)


def sympy_rref(field, rows, ncols):
    """RREF and pivots by sympy's DomainMatrix, as our scalars."""
    if field is QQ:
        dm = DomainMatrix([[sQQ.convert(x) for x in r] for r in rows], (len(rows), ncols), sQQ)
        conv = lambda x: Fraction(int(x.numerator), int(x.denominator))
    else:
        dom = sGF(field.p)
        dm = DomainMatrix([[dom.convert(x) for x in r] for r in rows], (len(rows), ncols), dom)
        conv = lambda x: int(x) % field.p  # sympy keeps symmetric residues
    red, piv = dm.rref()
    return tuple(tuple(conv(x) for x in r) for r in red.to_list()), tuple(piv)


def assert_rref_matches_sympy(field, rows, ncols):
    red = Matrix.from_rows(field, rows).rref()
    piv = red.pivots
    want, want_piv = sympy_rref(field, rows, ncols)
    assert (red.rows, piv) == (want[:len(want_piv)], want_piv)  # its nonzero rows
    scalar = Fraction if field is QQ else int
    assert all(type(x) is scalar for r in red.rows for x in r)


def _entries(field):
    if field is QQ:
        # small numerators and numerators near 3^40, denominators 1-5
        num = st.one_of(st.integers(-4, 4), st.integers(3 ** 40 - 4, 3 ** 40 + 4),
                        st.integers(-3 ** 40 - 4, -3 ** 40 + 4))
        return st.builds(Fraction, num, st.integers(1, 5))
    return st.integers(0, field.p - 1)


@st.composite
def rref_cases(draw):
    field = draw(st.sampled_from(RREF_FIELDS))
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.just(field.zero), _entries(field))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if rows and draw(st.booleans()):  # duplicate rows
        rows += [rows[i] for i in draw(st.lists(st.integers(0, nrows - 1), max_size=3))]
    return field, rows, ncols


@settings(max_examples=300)
@given(rref_cases())
def test_rref_equals_sympy_rref(case):
    assert_rref_matches_sympy(*case)


@pytest.mark.parametrize("field", RREF_FIELDS, ids=str)
def test_rref_equals_sympy_rref_on_edge_shapes(field):
    rng = random.Random(11)
    entry = lambda: (Fraction(rng.choice((0, 3 ** 40)) + rng.randrange(-3, 4),
                              rng.randrange(1, 6)) if field is QQ
                     else rng.randrange(field.p))
    assert_rref_matches_sympy(field, [], 4)  # 0 x k
    assert_rref_matches_sympy(field, [[], [], []], 0)  # k x 0
    assert_rref_matches_sympy(field, [[field.zero] * 5 for _ in range(4)], 5)
    for rank in (1, 5, 17):
        # tall and rank-deficient: a 192 x rank times a rank x 32 product
        left = [[entry() for _ in range(rank)] for _ in range(192)]
        right = Matrix.from_rows(field, [[entry() for _ in range(32)] for _ in range(rank)])
        rows = Matrix.from_rows(field, left).matmul(right).rows
        assert_rref_matches_sympy(field, rows, 32)


# Tall matrices above the crossover take the certified front end of rref.


def edge_prime(nrows):
    """The largest prime p at which nrows rows of entries below p pass the
    front end's float64 bound, nrows * p^2 + p < 2^53."""
    p = sympy.prevprime(math.isqrt(2 ** 53 // nrows) + 1)
    while nrows * p * p + p >= 2 ** 53:
        p = sympy.prevprime(p)
    return p


def tall_rows(rng, field, nrows, ncols, rank):
    """nrows x ncols rows of rank at most rank: a product of random factors,
    over Q with numerators near 3^40 (beyond int64) and small denominators."""
    if field is QQ:
        left = [[rng.randrange(-3, 4) for _ in range(rank)] for _ in range(nrows)]
        right = [[Fraction(rng.choice((0, 1, 3 ** 40)) + rng.randrange(-3, 4),
                           rng.randrange(1, 6)) for _ in range(ncols)] for _ in range(rank)]
        return [[sum((row[k] * right[k][j] for k in range(rank)), Fraction(0))
                 for j in range(ncols)] for row in left]
    p = field.p
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(ncols)]
             for _ in range(rank)]
    return [[sum(row[k] * right[k][j] for k in range(rank)) % p for j in range(ncols)]
            for row in left]


@st.composite
def tall_cases(draw):
    kind = draw(st.sampled_from(("GF(2)", "GF(3)", "GF(5)", "edge", "past edge", "Q")))
    shape = draw(st.sampled_from(("rank 0", "full rank", "fewest tall rows", "deficient")))
    cells = linalg.TALL_CELLS_Q if kind == "Q" else linalg.TALL_CELLS_GF
    if shape == "fewest tall rows":
        ncols = math.isqrt(cells)
        nrows = ncols + linalg._SKETCH_EXTRA + 1
    else:
        ncols = draw(st.integers(6, 24))
        nrows = -(-cells // ncols) + draw(st.integers(0, 40))
    rank = {"rank 0": 0, "deficient": draw(st.integers(1, ncols - 1))}.get(shape, ncols)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dups = draw(st.integers(0, 8))  # duplicate rows
    fields = {"GF(2)": GF(2), "GF(3)": GF(3), "GF(5)": GF(5), "Q": QQ,
              "edge": GF(edge_prime(nrows + dups))}
    fields["past edge"] = GF(sympy.nextprime(fields["edge"].p))
    field = fields[kind]
    rows = tall_rows(rng, field, nrows, ncols, rank)
    rows += [rows[rng.randrange(nrows)] for _ in range(dups)]
    return field, rows, ncols


@settings(max_examples=100)
@given(tall_cases())
def test_tall_rref_equals_sympy_rref(case):
    assert_rref_matches_sympy(*case)


def _count_kernel_calls(monkeypatch):
    """The primes of every call into the mod-p elimination kernel."""
    calls = []
    kernel = linalg._rref_mod

    def counted(m, p):
        calls.append(p)
        return kernel(m, p)

    monkeypatch.setattr(linalg, "_rref_mod", counted)
    return calls


def test_tall_front_end_takes_float64_only_below_the_bound(monkeypatch):
    # the sketch product of 300 rows reaches 300 (p - 1)^2; past the edge
    # prime (at p = 67108859 too) rref must keep the exact loop
    calls = _count_kernel_calls(monkeypatch)
    rng = random.Random(1)
    edge = edge_prime(300)
    for p, kernel_runs in ((edge, True), (sympy.nextprime(edge), False),
                           (67108859, False)):
        rows = tall_rows(rng, GF(p), 300, 40, 33)
        rows[0][0] = p - 1
        calls.clear()
        assert_rref_matches_sympy(GF(p), rows, 40)
        assert (calls == [p]) == kernel_runs, p


def test_tall_front_end_reduces_the_whole_pivot_column(monkeypatch):
    # lazy reduction over GF(5) with 90 pivots: unreduced entries above the
    # pivots would grow from step to step and pass 2^53 before the last one
    calls = _count_kernel_calls(monkeypatch)
    rows = tall_rows(random.Random(2), GF(5), 400, 100, 90)
    assert_rref_matches_sympy(GF(5), rows, 100)
    assert calls == [5]
    assert Matrix.from_rows(GF(5), rows).rank() == 90


def test_tall_front_end_declines_when_its_sketch_misses_rows(monkeypatch):
    # every column of the rows lies in the nullspace of the sketch, so the
    # sketch sees rank 0; the check finds every row outside the empty span,
    # the front end returns None, and rref runs the exact loop with no
    # second elimination mod p
    calls = _count_kernel_calls(monkeypatch)
    f, nrows, ncols = GF(5), 300, 20
    sketch = linalg.exact_ints(linalg._sketch(ncols + linalg._SKETCH_EXTRA, nrows, 5), 5).tolist()
    null = Matrix.from_rows(f, sketch).nullspace().rows
    rng = random.Random(4)
    coeffs = [[rng.randrange(5) for _ in null] for _ in range(ncols)]
    cols = [[sum(c * x for c, x in zip(cs, at)) % 5 for at in zip(*null)] for cs in coeffs]
    rows = [list(row) for row in zip(*cols)]
    assert all(any(row) for row in rows)
    assert linalg._tall_rref_mod(np.array(rows, np.float64), 5) is None
    calls.clear()
    assert_rref_matches_sympy(f, rows, ncols)
    assert calls == [5]


@pytest.mark.parametrize("j", [0, 19])
def test_tall_front_end_checks_every_free_column(j):
    # rows 0-29 are nonzero in column j alone, by a combination the sketch
    # sends to 0, and the other rows, zero there, are random: the sketch
    # sees every column but j, so j is the one free column of its RREF and
    # rows 0-29 leave that span at j alone.  The check must find them there
    # and decline; one that skipped column j would return rank ncols - 1
    p, nrows, ncols, few = 5, 300, 20, 30
    sketch = linalg.exact_ints(linalg._sketch(ncols + linalg._SKETCH_EXTRA, nrows, p), p)
    f = GF(p)
    head = Matrix.from_ints(f, sketch[:, :few]).nullspace().rows[0]
    rng = random.Random(6)
    others = [c for c in range(ncols) if c != j]
    x = np.zeros((nrows, ncols), np.int64)
    x[:few, j] = head
    x[few:, others] = [[rng.randrange(p) for _ in others] for _ in range(nrows - few)]
    assert Matrix.from_ints(f, sketch @ x % p).rref().pivots == tuple(others)
    assert linalg._tall_rref_mod(x.astype(np.float64), p) is None
    assert Matrix.from_ints(f, x).rank() == ncols
    assert_rref_matches_sympy(f, x.tolist(), ncols)


def test_tall_front_end_certifies_an_empty_selection(monkeypatch):
    # every row is a multiple of the selection prime: nothing is selected
    # mod it, the check finds every row outside the empty span, the front
    # end returns None, and the exact loop still gives the nonzero RREF
    calls = _count_kernel_calls(monkeypatch)
    q = linalg.SELECT_PRIME
    rng = random.Random(3)
    left = [[rng.randrange(-3, 4) for _ in range(12)] for _ in range(120)]
    right = [[rng.randrange(-3, 4) for _ in range(20)] for _ in range(12)]
    rows = [[Fraction(q * sum(row[k] * right[k][j] for k in range(12))) for j in range(20)]
            for row in left]
    red = Matrix.from_rows(QQ, rows).rref()
    assert calls == [q] and len(red.pivots) == 12
    assert_rref_matches_sympy(QQ, rows, 20)
    assert linalg._tall_rref_q(np.array([[int(y) for y in row] for row in rows])) is None


@pytest.mark.parametrize("field", [QQ, gf5], ids=str)
def test_near_square_input_keeps_the_loop(monkeypatch, field):
    # up to ncols + _SKETCH_EXTRA nonzero rows the sketch would be as tall as
    # the input, so rref runs the exact loop alone however many cells there
    # are; one row more takes the front end
    calls = _count_kernel_calls(monkeypatch)
    cells = linalg.TALL_CELLS_Q if field is QQ else linalg.TALL_CELLS_GF
    ncols = math.isqrt(cells)
    for extra in range(1, linalg._SKETCH_EXTRA + 2):
        rows = tall_rows(random.Random(extra), field, ncols + extra, ncols, ncols - 2)
        assert all(any(row) for row in rows) and len(rows) * ncols >= cells
        calls.clear()
        assert_rref_matches_sympy(field, rows, ncols)
        assert bool(calls) == (extra > linalg._SKETCH_EXTRA), extra


def test_gauss_jordan_den_is_the_least_common_denominator():
    # the row [0, 3, 9] is the pivot row of the last pivot and is never
    # updated: unless it is made primitive when chosen, den comes out 3 for
    # an integer RREF
    assert (linalg._gauss_jordan([[2, 4, 6], [0, 3, 9]], 3, None)
            == ([[1, 0, -3], [0, 1, 3]], 1, [0, 1]))


# The tall Q front end's rungs: a rebuild from the image mod SELECT_PRIME,
# one from the images mod SELECT_PRIME and SECOND_PRIME, and _select_rref_q.
# A rebuild holds while every row's least common denominator d and d times
# the row are at most B = isqrt(M / 2), M the product of the primes.

B_ONE = math.isqrt(linalg.SELECT_PRIME // 2)
B_TWO = math.isqrt(linalg.SELECT_PRIME * linalg.SECOND_PRIME // 2)
Q_ROUTES = {"one prime": [(1, True)], "two primes": [(1, False), (2, True)],
            "past both": [(1, False), (2, False), "select"],
            "other pivots": [(1, False), "select"], "sketch kernel": [(1, True), "select"],
            "at the bound": [(1, True)], "past the bound": ["select"]}


def _record_q_route(mp):
    """The rungs _tall_rref_q takes: (number of images, whether the rebuild
    gave V) per rebuild, and "select" for the fallback."""
    route = []
    rebuild, select = linalg._rebuild_rref, linalg._select_rref_q

    def counted_rebuild(images):
        out = rebuild(images)
        route.append((len(images), out is not None))
        return out

    mp.setattr(linalg, "_rebuild_rref", counted_rebuild)
    mp.setattr(linalg, "_select_rref_q", lambda x: route.append("select") or select(x))
    return route


def _rebuild_bound(v, den):
    """The least B at which every row of the RREF v / den rebuilds: the
    largest least common denominator d of a row, or entry of d times it."""
    top = 0
    for row in v:
        g = math.gcd(den, *row)
        top = max(top, den // g, *(abs(y) // g for y in row))
    return top


@functools.cache
def _short_sketch_kernel_vector(n, k):
    """A short integer w with S w = 0 mod SELECT_PRIME, S the k x n sketch:
    the first row of an LLL-reduced basis of that lattice, which is spanned
    by the nullspace of S mod the prime and the prime times the unit vectors
    at the pivots of S."""
    q = linalg.SELECT_PRIME
    s = Matrix.from_ints(GF(q), linalg.exact_ints(linalg._sketch(k, n, q), q))
    basis = s.nullspace().ints.tolist() + [[q * (j == c) for j in range(n)]
                                           for c in s.rref().pivots]
    red = DomainMatrix([[sZZ(y) for y in row] for row in basis], (n, n), sZZ).lll()
    return [int(y) for y in red.to_list()[0]]


def _nonzero_left(rng, n, r):
    return [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(r)] for _ in range(n)]


@st.composite
def tall_q_cases(draw):
    """(kind, x), x tall nonzero integer rows on the rung Q_ROUTES[kind]
    names: the product of nonzero small rows and r random rows of entries
    up to k, whose r x r minors set the RREF's denominators and numerators
    (at most 2000, 2 30^2 and 6^3 sqrt(27) for one prime, 2 3000^2 and
    150^3 sqrt(27) for two, near 1000^r for past both)."""
    kind = draw(st.sampled_from(sorted(Q_ROUTES)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if kind == "sketch kernel":
        # column 0 lies in the kernel of the sketch mod the prime, so its
        # image has rank nc - 1 and rebuilds, and every row escapes it
        n, nc = 30, 6
        w = _short_sketch_kernel_vector(n, nc + linalg._SKETCH_EXTRA)
        rest = np.array(_nonzero_left(rng, n, 5)) @ np.array(
            [[rng.randint(-5, 5) for _ in range(nc - 1)] for _ in range(5)])
        return kind, np.column_stack([w, rest]).astype(np.int64)
    nc = draw(st.integers(6, 20))
    n = nc + draw(st.integers(5, 60))
    if kind == "other pivots":
        # the leading 2 x 2 minor is SECOND_PRIME: 8193^2 - 4 * 4103
        right = [[8193, 4] + [rng.randint(-50, 50) for _ in range(nc - 2)],
                 [4103, 8193] + [rng.randint(-50, 50) for _ in range(nc - 2)]]
    else:
        r, k = {"one prime": draw(st.sampled_from(((1, 2000), (2, 30), (3, 6)))),
                "two primes": draw(st.sampled_from(((2, 3000), (3, 150)))),
                "past both": (draw(st.integers(4, min(8, nc - 1))), 1000)}.get(kind, (3, 6))
        right = [[rng.randint(-k, k) for _ in range(nc)] for _ in range(r)]
        if kind.endswith("bound"):  # e_0 in the row space, for the one big row
            right = [[1] + [0] * (nc - 1)] + [[0] + row[1:] for row in right]
    x = np.array(_nonzero_left(rng, n, len(right))) @ np.array(right)
    x = x[x.any(axis=1)]
    if kind.endswith("bound"):
        # the largest magnitude at which n SELECT_PRIME max|x| < 2^53, or one past
        top = (2 ** 53 - 1) // (len(x) * linalg.SELECT_PRIME) + (kind == "past the bound")
        x[0] = 0
        x[0, 0] = rng.choice((top, -top))
    return kind, x.astype(np.int64)


@settings(max_examples=100)
@given(tall_q_cases())
def test_tall_q_front_end_equals_the_loop_on_every_rung(case):
    kind, x = case
    n, nc = x.shape
    assert n > nc and x.any(axis=1).all()
    want = linalg._gauss_jordan(x.tolist(), nc, None)
    with pytest.MonkeyPatch.context() as mp:
        route = _record_q_route(mp)
        v, den, pivots = linalg._tall_rref_q(x)
    assert (np.asarray(v).tolist(), den, list(pivots)) == want
    assert route == Q_ROUTES[kind]
    # the case is the one its kind names
    top, edge = _rebuild_bound(*want[:2]), n * linalg.SELECT_PRIME * linalg.magnitude(x)
    assert {"one prime": top <= B_ONE, "two primes": B_ONE < top <= B_TWO,
            "past both": top > B_TWO, "at the bound": edge < 2 ** 53 <= edge + n * linalg.SELECT_PRIME,
            "past the bound": edge - n * linalg.SELECT_PRIME < 2 ** 53 <= edge}.get(kind, True)
    if kind == "other pivots":
        assert Matrix.from_ints(GF(linalg.SECOND_PRIME), x).rref().pivots != tuple(pivots)
    if kind == "sketch kernel":
        s = linalg._sketch(nc + linalg._SKETCH_EXTRA, n, linalg.SELECT_PRIME)
        assert not (linalg.exact_ints(s, linalg.SELECT_PRIME) @ x[:, 0] % linalg.SELECT_PRIME).any()
    # sympy's values, and den their least common denominator
    red, piv = sympy_rref(QQ, x.tolist(), nc)
    assert [[Fraction(y, den) for y in row] for row in want[0]] == [list(r) for r in red[:len(piv)]]
    assert den == math.lcm(*(y.denominator for r in red for y in r))


def test_mod_p_kernel_at_the_selection_prime_equals_sympy():
    # at p near 2^26 one rank-1 update adds up to 2^50 to an entry, so the
    # kernel must reduce the whole array every few pivots
    q = linalg.SELECT_PRIME
    rng = random.Random(5)
    rows = tall_rows(rng, GF(q), 150, 100, 95)
    m = np.array(rows, dtype=np.float64)
    pivots, order = linalg._rref_mod(m, q)
    rank = len(pivots)
    red, piv = sympy_rref(GF(q), rows, 100)
    assert ((linalg.exact_ints(m[:rank], q).tolist(), tuple(pivots))
            == ([list(r) for r in red[:rank]], piv))
    assert sympy_rref(GF(q), [rows[i] for i in order[:rank]], 100) == (red[:rank], piv)


# the primes on both sides of 2^53, where exact_ints stops taking the
# quotient of a float64 array in float64
BELOW_2_53, ABOVE_2_53 = 2 ** 53 - 111, 2 ** 53 + 5


@pytest.mark.parametrize("p", [None, 2, 3, 5, 2 ** 31 - 1, BELOW_2_53, ABOVE_2_53, 2 ** 61 - 1,
                               9223372036854775783, 9223372036854775837,
                               18446744073709551629])
def test_residues_are_exact_on_every_rung_for_every_prime(p):
    # the same integers on the three rungs; Python's % is the oracle
    top = 2 ** 53 - 1
    values = [0, 1, -1, 7, -2 ** 52 + 3, 2 ** 52 - 5, top, -top]
    if p is not None:  # k p and its neighbours next to 2^53, on both signs
        kp = top // p * p
        values += [s * (kp + d) for s in (1, -1) for d in (-1, 0, 1) if kp + d <= top]
    want = [x if p is None else x % p for x in values]
    big = [x * 2 ** 9 for x in values]  # past 2^53, exact on int64 only
    big_want = [x if p is None else x % p for x in big]
    for arr, expect in ((np.array(values, np.float64), want),
                        (np.array(values, np.int64), want),
                        (np.array(big, np.int64), big_want),
                        (np.array(values, object), want)):
        got = linalg.exact_ints(arr, p)
        assert got.dtype in (np.int64, object)
        assert np.array(expect, linalg.exact_dtype(p, arr.dtype)).tolist() == expect
        assert got.tolist() == expect
        assert all(type(x) is int for x in got.tolist())
        assert linalg.nonzero_mod(arr.copy(), p).tolist() == [x != 0 for x in expect]
    assert linalg.exact_dtype(5, np.float64) == np.uint8
    assert linalg.exact_dtype(None, np.float64) == np.int64
    assert linalg.exact_dtype(18446744073709551629, np.float64) == object


RREF_MOD_PRIMES = (2, 3, 5, 2 ** 25 - 39, linalg.SELECT_PRIME)


@st.composite
def rref_mod_cases(draw):
    p = draw(st.sampled_from(RREF_MOD_PRIMES))
    n = draw(st.integers(1, 12))
    extra = draw(st.integers(1, 6))
    k, nc = draw(st.sampled_from(((1, n), (n, 1), (n, n + extra), (n + extra, n), (n, n))))
    rank = draw(st.sampled_from((0, min(k, nc), draw(st.integers(0, min(k, nc))))))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = tall_rows(rng, GF(p), k, nc, rank)
    # entries off their residues by multiples of p, up to 2^52
    lift = draw(st.sampled_from((0, 3, 2 ** 52 // p)))
    return p, rows, [[x + p * rng.randint(-lift, lift) for x in row] for row in rows]


@settings(max_examples=200)
@given(rref_mod_cases())
def test_mod_p_kernel_equals_sympy(case):
    # pivots, residues and the order contract of the float64 kernel itself
    p, rows, lifted = case
    m = np.array(lifted, dtype=np.float64)
    k, nc = m.shape
    pivots, order = linalg._rref_mod(m, p)
    r = len(pivots)
    red, piv = sympy_rref(GF(p), rows, nc)
    assert tuple(pivots) == piv
    assert linalg.exact_ints(m[:r], p).tolist() == [list(x) for x in red[:r]]
    assert np.abs(m).max() <= p // 2 + 1 and not m[r:].any()  # centred; the rest is zero
    assert sorted(order) == list(range(k))
    assert sympy_rref(GF(p), [rows[i] for i in order[:r]], nc) == (red[:r], piv)


# The array entry: Matrix.from_ints keeps the exact integer array, and rref
# starts from it; the rows it fills must give the same answers as the same
# ints handed in as rows.

ARRAY_FIELDS = (GF(2), GF(3), GF(5), GF(2 ** 31 - 1), GF(2 ** 61 - 1), QQ)


def _int_rows(rng, field, nrows, ncols, rank, big=False):
    """nrows x ncols integer rows of rank at most rank, as residues over
    GF(p); over Q integers, near 3^40 (past int64) when big, with a zero
    row after every third one."""
    left = [[rng.randrange(-2, 3) for _ in range(rank)] for _ in range(nrows)]
    entry = (lambda: rng.randrange(field.p)) if field.p else \
        (lambda: rng.choice((0, 1, 3 ** 40 if big else 5)) + rng.randrange(-3, 4))
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for i, row in enumerate(left):
        out = [sum(row[k] * right[k][j] for k in range(rank)) for j in range(ncols)]
        rows.append([x % field.p for x in out] if field.p else out)
        if i % 3 == 2:
            rows.append([0] * ncols)
    return rows


def _array_cases(field, big):
    """(rows, tall) pairs: no rows, no columns, all zero, small, and tall
    inputs one nonzero row either side of the front end's cell bound."""
    rng = random.Random(field.p or int(big))
    cells = linalg.TALL_CELLS_Q if field is QQ else linalg.TALL_CELLS_GF
    ncols = math.isqrt(cells) // 4
    yield [], False
    yield [[], [], []], False
    yield [[0] * 5 for _ in range(4)], False
    yield _int_rows(rng, field, 5, 6, 4, big), False
    least = -(-cells // ncols)  # the fewest nonzero rows that reach the cells
    for nonzero, tall in ((least - 1, False), (least, True)):
        rows = _int_rows(rng, field, 3 * nonzero, ncols, ncols - 3, big)
        rows = [row for row in rows if any(row)][:nonzero]
        for i in range(0, len(rows), 7):  # interleaved zero rows do not count
            rows.insert(i, [0] * ncols)
        yield rows, tall


def _assert_scalar_rows(field, m):
    scalar = Fraction if field is QQ else int
    assert all(type(x) is scalar for row in m.rows for x in row)


@pytest.mark.parametrize("field,dtype,big", [
    *((f, dt, False) for f in ARRAY_FIELDS[:4] for dt in (np.float64, np.int64, object)),
    (ARRAY_FIELDS[4], np.int64, False), (ARRAY_FIELDS[4], object, False),
    (QQ, np.float64, False), (QQ, np.int64, False), (QQ, object, True)], ids=str)
def test_array_entry_equals_the_same_ints_as_rows(monkeypatch, field, dtype, big):
    kernels = []
    for name in ("_tall_rref_mod", "_tall_rref_q"):
        kernel = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, k=kernel: kernels.append(1) or k(*a))
    for rows, tall in _array_cases(field, big):
        ncols = len(rows[0]) if rows else 0
        arr = np.array(rows, dtype=dtype).reshape(len(rows), ncols)
        got, want = Matrix.from_ints(field, arr), Matrix.from_rows(field, rows)
        assert got == want and hash(got) == hash(want)
        assert all(type(x) is int for row in got.rows for x in row)
        kernels.clear()
        red = got.rref()
        assert (red, red.pivots) == (want.rref(), want.rref().pivots) and bool(kernels) == tall
        assert got.rank() == want.rank() == len(red.pivots)
        assert got.nullspace() == want.nullspace()
        for m in (red, got.nullspace()):
            _assert_scalar_rows(field, m)
    if field.p is not None:
        # rows outside [0, p), negative, p itself and p + 1, are kept as
        # given and reduced once: a pivot entry p is zero, not a unit
        p = field.p
        rows = [[p, 1, -1, 0], [-p - 2, p + 1, 2 * p, 1], [0, -3, p + 1, p - 1]]
        raw = Matrix.from_rows(field, rows)
        twin = Matrix.from_rows(field, [[x % p for x in row] for row in rows])
        assert raw.rows == tuple(map(tuple, rows)) and raw != twin
        assert (raw.rref(), raw.rref().pivots) == (twin.rref(), twin.rref().pivots)
        assert raw.nullspace() == twin.nullspace()
        assert (raw.scaled()[0], raw.scaled()[1].tolist()) == (1, twin.scaled()[1].tolist())
        if dtype is not np.float64 or p < 2 ** 50:
            assert Matrix.from_ints(field, np.array(rows, dtype=dtype)) == twin
        assert Matrix.from_rows(field, [[p, 1]]).rref().rows == ((0, 1),)


def _route_cases():
    """(id, matrix, route) for every elimination route: route lists each
    front-end call and whether the front end gave the RREF (True) or left
    it to the loop (False, the float64 rung failing)."""
    rng = random.Random(5)
    big = GF(2 ** 61 - 1)

    def rows(field, nrows, ncols, rank):
        return Matrix.from_rows(field, tall_rows(rng, field, nrows, ncols, rank))

    return [
        ("GF(5) small", rows(GF(5), 6, 5, 3), []),
        ("GF(5) tall", rows(GF(5), 300, 20, 15), [("_tall_rref_mod", True)]),
        ("GF(2^61-1) tall", rows(big, 120, 20, 15), [("_tall_rref_mod", False)]),
        ("Q small", rows(QQ, 5, 4, 2), []),
        ("Q tall", rows(QQ, 60, 20, 12), [("_tall_rref_q", True)]),
        ("GF(5) zero 648x72", Matrix.from_ints(GF(5), np.zeros((648, 72))), []),
        ("2x0", Matrix.from_rows(GF(5), [[], []]), []),
        ("0x3", Matrix.from_ints(QQ, np.zeros((0, 3), np.int64)), []),
    ]


@pytest.mark.parametrize("case", _route_cases(), ids=lambda c: c[0])
def test_every_route_gives_the_nonzero_rref_rows(monkeypatch, case):
    _, mat, route = case
    taken = []
    for name in ("_tall_rref_mod", "_tall_rref_q"):
        kernel = getattr(linalg, name)

        def counted(*a, name=name, kernel=kernel):
            out = kernel(*a)
            taken.append((name, out is not None))
            return out

        monkeypatch.setattr(linalg, name, counted)
    f, ncols = mat.field, mat.ncols
    red = mat.rref()
    assert taken == route
    assert red.nrows == len(red.pivots) == red.ints.shape[0]
    assert red.ints.shape[1] == ncols
    assert all(any(x != f.zero for x in row) for row in red.rows)
    assert red.rref() is red
    assert mat.nullspace().nrows == ncols - len(red.pivots)


def test_tall_front_end_never_imports_numpy_random():
    # a sampled GF(5) dim-5 Leibniz algebra: its 375 x 50 constraint matrix
    # takes the front end, whose sketch is hashed with integer arithmetic;
    # importing numpy.random would cost about 5 MB of RSS in every run
    code = ("import json, random, sys\n"
            "from artifact import corpus, existence, linalg\n"
            "from artifact.fields import GF\n"
            "calls = []\n"
            "kernel = linalg._tall_rref_mod\n"
            "linalg._tall_rref_mod = lambda *a: calls.append(a[0]) or kernel(*a)\n"
            "a = corpus.sample_algebra(random.Random(0), GF(5), 5, 'leibniz')\n"
            "existence.actor_pipeline(a)\n"
            "print(json.dumps([len(calls[0]), 'numpy.random' in sys.modules]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    assert json.loads(proc.stdout) == [375, False]


def test_gf5_dim6_bimultiplier_nullspace_within_budget():
    # a sampled GF(5) dim-6 associative algebra: its 648 x 72 constraint
    # array, as the assembly hands it in on the float64 rung, reduced to its
    # nullspace 20 times in a child on one BLAS thread.  The front end takes
    # about 0.07 s CPU on an Intel Xeon, the exact loop alone 0.4-0.55 s
    code = ("import json, random, time\n"
            "import numpy as np\n"
            "from artifact.constructions import _bimultiplier_rows\n"
            "from artifact.corpus import sample_algebra\n"
            "from artifact.fields import GF\n"
            "from artifact.linalg import Matrix\n"
            "a = sample_algebra(random.Random(0), GF(5), 6, 'associative')\n"
            "arr = _bimultiplier_rows(a).ints.astype(np.float64)\n"
            "start = time.process_time()\n"
            "null = [Matrix.from_ints(GF(5), arr).nullspace() for _ in range(20)]\n"
            "elapsed = time.process_time() - start\n"
            "print(json.dumps([arr.shape, null[0].nrows, elapsed]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    shape, nullity, elapsed = json.loads(proc.stdout)
    assert shape == [648, 72] and nullity == 6
    assert elapsed < 0.3, elapsed


@st.composite
def q_rows(draw):
    ncols = draw(st.integers(0, 6))
    entry = st.one_of(st.just(QQ.zero), _entries(QQ))
    return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))


@settings(max_examples=200)
@given(q_rows())
def test_rref_of_lam_scaled_integer_rows_equals_rref_of_fraction_rows(rows):
    # constraint rows over Q arrive as Python ints, lam times their value
    lam = math.lcm(*(x.denominator for row in rows for x in row))
    ints = [[int(lam * x) for x in row] for row in rows]
    exact, scaled = Matrix.from_rows(QQ, rows), Matrix.from_rows(QQ, ints)
    assert scaled.rref() == exact.rref()
    assert scaled.nullspace() == exact.nullspace()


def test_solve_returns_exact_solution_or_none():
    f = QQ
    a = Matrix.from_rows(f, [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert solve(a, (Fraction(1), Fraction(2))) is not None
    assert solve(a, (Fraction(1), Fraction(3))) is None
    b = Matrix.from_rows(f, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    x = solve(b, (Fraction(3), Fraction(2)))
    assert b.apply(x) == (Fraction(3), Fraction(2))
    # no equations: every x solves them, and the zero vector is returned
    assert solve(Matrix.from_ints(GF(5), np.zeros((0, 3), np.int64)), ()) == (0, 0, 0)


def test_subspace_coords_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        rows = rand_rows(rng, gf5, 3, 4)
        span = basis = Matrix.from_rows(gf5, rows).rref()
        nz = [i for i in range(basis.nrows) if any(x != 0 for x in basis.row(i))]
        assert nz == list(range(basis.nrows))
        # any combination of basis rows is recovered exactly
        coeffs = [rng.randrange(5) for _ in range(basis.nrows)]
        target = [gf5.zero] * 4
        for c, i in zip(coeffs, range(basis.nrows)):
            target = list(vec_add(gf5, tuple(target), tuple(gf5.mul(c, x) for x in basis.row(i))))
        got = span.coords(tuple(target))
        assert got is not None and list(got) == coeffs


def test_subspace_rejects_vectors_outside_span():
    f = QQ
    span = Matrix.from_rows(f, [[f.one, f.zero, f.zero]]).rref()
    v = (f.zero, f.one, f.zero)
    assert span.coords(v) is None and not span.contains(v)
    assert span.residual(v) == v
    # only an RREF, which carries its pivots, reads coordinates off them
    with pytest.raises(LinAlgError, match="need an RREF"):
        Matrix.from_rows(f, [[f.zero, f.one, f.zero]]).coords(v)


P61 = 2 ** 61 - 1


@pytest.mark.parametrize("field, dtype", [
    (GF(2), np.float64), (GF(2), np.int64), (GF(2), object),
    (gf5, np.float64), (gf5, np.int64), (gf5, object), (GF(P61), object),
    (QQ, np.float64), (QQ, np.int64), (QQ, object),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_outside_span_agrees_with_subspace_contains(field, dtype):
    # Matrix.contains is the scalar oracle; the rows are combinations of
    # the basis, random rows, and combinations plus a unit vector at a free
    # column, which always escape.  Over Q the basis is v / den with den > 1
    # and the rows are integers, whose membership does not depend on scale.
    p = field.p
    rng = random.Random(11 if p is None else p)

    def scalar():
        if p is None:
            return Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 6]))
        return rng.randrange(p)

    dens, shapes = set(), set()
    for _ in range(40):
        nc = rng.randrange(1, 8)
        rows = [[scalar() for _ in range(nc)] for _ in range(rng.randrange(nc + 2))]
        span = Matrix.from_rows(field, rows).rref()
        v, den, pivots = span.ints.tolist(), span.den, span.pivots
        free = [j for j in range(nc) if j not in pivots]

        def combination():
            row = [0] * nc
            for basis_row in v:
                c = rng.randrange(-3, 4)
                row = [y + c * z for y, z in zip(row, basis_row)]
            return [y % p for y in row] if p else row

        x = [combination() for _ in range(3)]
        x += [[rng.randrange(-6, 7) if p is None else rng.randrange(p) for _ in range(nc)]
              for _ in range(3)]
        for j in free[:2]:
            row = combination()
            row[j] += 1
            x.append(row)
        x = x[:rng.randrange(len(x) + 1)]  # 0 rows too
        got = linalg.outside_span(np.array(x, dtype=object).reshape(-1, nc).astype(dtype), den,
                                  np.array(v, dtype=object).reshape(-1, nc).astype(dtype),
                                  pivots, p)
        want = [not span.contains(tuple(Fraction(y) if p is None else y for y in row))
                for row in x]
        assert got.dtype == bool and got.tolist() == want
        dens.add(den)
        shapes.add((len(x) == 0, len(free) == 0, any(want)))
    assert {(True, False, False), (False, True, False), (False, False, True)} <= shapes
    assert p is not None or max(dens) > 1


@pytest.mark.parametrize("dtype, p", [(np.float64, 5), (np.int64, None), (object, None)],
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_outside_span_flags_no_row_when_every_column_is_a_pivot(dtype, p):
    # the span is the whole space, and with no free column the test reads no
    # column at all: no row is flagged, however large, and the Q front ends
    # need no shortcut for a full-rank RREF
    nc, den = 5, 1 if p else 6
    rng = random.Random(7)
    top = 2 ** 40 if dtype == np.int64 else 3 ** 60 if dtype is object else 2 ** 20
    x = [[rng.choice((0, 1, -top, top)) + rng.randrange(-3, 4) for _ in range(nc)]
         for _ in range(12)]
    v = (den * np.eye(nc, dtype=np.int64)).astype(dtype)
    for rows in (x, []):
        got = linalg.outside_span(np.array(rows, dtype=object).reshape(-1, nc).astype(dtype),
                                  den, v, list(range(nc)), p)
        assert got.dtype == bool and got.tolist() == [False] * len(rows)


def test_matmul_shape_errors():
    a = Matrix.zeros(gf5, 2, 3)
    b = Matrix.zeros(gf5, 2, 3)
    with pytest.raises(LinAlgError):
        a.matmul(b)


def test_mixed_field_refused():
    a = Matrix.zeros(gf5, 2, 2)
    b = Matrix.zeros(GF(7), 2, 2)
    with pytest.raises(LinAlgError):
        a.add(b)


def test_basis_vector():
    assert basis_vector(gf5, 3, 1) == (0, 1, 0)
    with pytest.raises(LinAlgError):
        basis_vector(gf5, 3, 5)
