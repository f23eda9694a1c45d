"""Exact linear algebra, cross-checked against sympy.

sympy computes with its own elimination code (DomainMatrix over QQ and
GF(p)), which is a different implementation of the same math; ranks,
nullspace dimensions and whole reduced row echelon forms must agree with
ours on random inputs.
"""

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
from sympy.polys.domains import GF as sGF, QQ as sQQ
from sympy.polys.matrices import DomainMatrix

from artifact import linalg
from artifact.fields import GF, QQ
from artifact.linalg import (LinAlgError, Matrix, basis_vector,
                             express_in_rref_rows, vec_add, vec_scale)

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
        r1, piv1 = mat.rref()
        r2, piv2 = r1.rref()
        assert r1.rows == r2.rows and piv1 == piv2
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
    mat = Matrix(field, tuple(tuple(r) for r in rows))
    red, piv = mat.rref()
    assert (red.rows, piv) == sympy_rref(field, rows, ncols)
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
    shape = draw(st.sampled_from(("rank 0", "full rank", "ncols + 1 rows", "deficient")))
    cells = linalg.TALL_CELLS_Q if kind == "Q" else linalg.TALL_CELLS_GF
    if shape == "ncols + 1 rows":
        ncols = math.isqrt(cells)
        nrows = ncols + 1
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


def test_tall_front_end_adds_the_rows_its_sketch_misses(monkeypatch):
    # every column of the rows lies in the nullspace of the sketch, so the
    # sketch sees rank 0; the check finds every row outside the empty span
    # and one more elimination over them gives the RREF
    calls = _count_kernel_calls(monkeypatch)
    f, nrows, ncols = GF(5), 300, 20
    sketch = linalg.python_ints(linalg._sketch(ncols + linalg._SKETCH_EXTRA, nrows, 5), 5)
    null = Matrix.from_rows(f, sketch).nullspace().rows
    rng = random.Random(4)
    coeffs = [[rng.randrange(5) for _ in null] for _ in range(ncols)]
    cols = [[sum(c * x for c, x in zip(cs, at)) % 5 for at in zip(*null)] for cs in coeffs]
    rows = [list(row) for row in zip(*cols)]
    assert all(any(row) for row in rows)
    assert_rref_matches_sympy(f, rows, ncols)
    assert calls == [5, 5]


def test_tall_front_end_certifies_an_empty_selection(monkeypatch):
    # every row is a multiple of the selection prime: nothing is selected
    # mod it, the check finds every row outside the empty span, and the
    # exact loop still gives the nonzero RREF
    calls = _count_kernel_calls(monkeypatch)
    q = linalg.SELECT_PRIME
    rng = random.Random(3)
    left = [[rng.randrange(-3, 4) for _ in range(12)] for _ in range(120)]
    right = [[rng.randrange(-3, 4) for _ in range(20)] for _ in range(12)]
    rows = [[Fraction(q * sum(row[k] * right[k][j] for k in range(12))) for j in range(20)]
            for row in left]
    red, piv = Matrix.from_rows(QQ, rows).rref()
    assert calls == [q] and len(piv) == 12
    assert_rref_matches_sympy(QQ, rows, 20)


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
    assert (linalg.python_ints(m[:rank], q), tuple(pivots)) == ([list(r) for r in red[:rank]], piv)
    assert sympy_rref(GF(q), [rows[i] for i in order[:rank]], 100) == (red[:rank], piv)


@pytest.mark.parametrize("p", [None, 5, 2 ** 31 - 1, 2 ** 61 - 1, 9223372036854775783,
                               9223372036854775837, 18446744073709551629])
def test_residues_are_exact_on_every_rung_for_every_prime(p):
    # the same integers on the three rungs; Python's % is the oracle
    values = [0, 1, -1, 7, -2 ** 52 + 3, 2 ** 52 - 5]
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
        assert linalg.python_ints(arr, p) == expect
        assert all(type(x) is int for x in linalg.python_ints(arr, p))
        assert linalg.nonzero_mod(arr.copy(), p).tolist() == [x != 0 for x in expect]
    assert linalg.exact_dtype(5, np.float64) == np.uint8
    assert linalg.exact_dtype(None, np.float64) == np.int64
    assert linalg.exact_dtype(18446744073709551629, np.float64) == object


def test_tall_front_end_never_imports_numpy_random():
    # a sampled GF(5) dim-5 Leibniz algebra: its 375 x 50 constraint matrix
    # takes the front end, whose sketch is hashed with integer arithmetic;
    # importing numpy.random would cost about 5 MB of RSS in every run
    code = ("import json, random, sys\n"
            "from artifact import corpus, existence, linalg\n"
            "from artifact.fields import GF\n"
            "calls = []\n"
            "kernel = linalg._tall_rref_mod\n"
            "linalg._tall_rref_mod = lambda *a: calls.append(a[1]) or kernel(*a)\n"
            "a = corpus.sample_algebra(random.Random(0), GF(5), 5, 'leibniz')\n"
            "existence.actor_pipeline(a)\n"
            "print(json.dumps([len(calls[0]), 'numpy.random' in sys.modules]))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    assert json.loads(proc.stdout) == [375, False]


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
    assert a.solve((Fraction(1), Fraction(2))) is not None
    assert a.solve((Fraction(1), Fraction(3))) is None
    b = Matrix.from_rows(f, [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    x = b.solve((Fraction(3), Fraction(2)))
    assert b.apply(x) == (Fraction(3), Fraction(2))


def test_express_in_rref_rows_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        rows = rand_rows(rng, gf5, 3, 4)
        basis, piv = Matrix.from_rows(gf5, rows).rref()
        nz = [i for i in range(basis.nrows) if any(x != 0 for x in basis.row(i))]
        basis = Matrix.from_rows(gf5, [basis.row(i) for i in nz]) if nz else Matrix(gf5, ())
        # any combination of basis rows is recovered exactly
        coeffs = [rng.randrange(5) for _ in range(basis.nrows)]
        target = [gf5.zero] * 4
        for c, i in zip(coeffs, range(basis.nrows)):
            target = list(vec_add(gf5, tuple(target), vec_scale(gf5, c, basis.row(i))))
        got = express_in_rref_rows(basis, piv[:basis.nrows], tuple(target))
        assert got is not None and list(got) == coeffs


def test_express_rejects_vectors_outside_span():
    f = QQ
    basis = Matrix.from_rows(f, [[f.one, f.zero, f.zero]])
    assert express_in_rref_rows(basis, (0,), (f.zero, f.one, f.zero)) is None


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
