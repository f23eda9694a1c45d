"""Structure-constant algebras: identities, subspaces, quotients, JSON."""

import functools
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact import algebra, cli, corpus, linalg
from artifact.algebra import (CATEGORIES, IDENTITY_TAGS, Algebra, InputError,
                              algebra_from_json, annihilator, check_identity,
                              derived_subspace, identity_suite, is_ideal,
                              make_algebra, quotient)
from artifact.corpus import (_conjugate, _inverse_rref, _rand_invertible, a5_leibniz, abelian,
                             diagonal_algebra, dual_numbers, heisenberg,
                             m2_rationals, sample_algebra, sl2, truncated_poly,
                             zero_algebra)
from artifact.fields import GF, QQ
from artifact.linalg import Matrix, basis_vector, vec_add, vec_sub, vec_zero
from artifact.reporting import Report

from conftest import load_fixture

gf5 = GF(5)


def brute_identity(a, tag):
    """Oracle: evaluate both sides of an identity with Algebra.multiply on
    basis tuples, no tensor contraction formulas involved."""
    n = a.dim
    f = a.field
    e = [basis_vector(f, n, i) for i in range(n)]
    mul = a.multiply

    def lin(*terms):
        """Sum of signed vectors, e.g. lin((1, u), (-1, v)) = u - v."""
        out = (f.zero,) * n
        for sign, v in terms:
            out = tuple(f.add(p, q) if sign > 0 else f.sub(p, q) for p, q in zip(out, v))
        return out

    if tag in ("commutativity", "anticommutativity"):
        sign = 1 if tag == "commutativity" else -1
        return all(mul(x, y) == lin((sign, mul(y, x)))
                   for x, y in itertools.product(e, repeat=2))
    for x, y, z in itertools.product(e, repeat=3):
        if tag == "associativity":
            sides = [(mul(mul(x, y), z), mul(x, mul(y, z)))]
        elif tag == "jacobi":
            sides = [(lin((1, mul(mul(x, y), z)), (1, mul(mul(y, z), x)),
                          (1, mul(mul(z, x), y))), lin())]
        elif tag == "leibniz":
            sides = [(mul(x, mul(y, z)), lin((1, mul(mul(x, y), z)), (-1, mul(mul(x, z), y))))]
        elif tag == "alternative":
            # the linearized left and right alternative laws
            sides = [(lin((1, mul(x, mul(y, z))), (1, mul(y, mul(x, z)))),
                      lin((1, mul(mul(x, y), z)), (1, mul(mul(y, x), z)))),
                     (lin((1, mul(mul(x, y), z)), (1, mul(mul(x, z), y))),
                      lin((1, mul(x, mul(y, z))), (1, mul(x, mul(z, y)))))]
        else:
            raise AssertionError(tag)
        if any(l != r for l, r in sides):
            return False
    return True


FIXTURE_SUITE_CASES = [
    (sl2(), True), (heisenberg(), True), (m2_rationals(), True),
    (dual_numbers(), True), (a5_leibniz(), True),
    (abelian(QQ, 3), True), (zero_algebra(gf5, 2), True),
]


@pytest.mark.parametrize("a,expected", FIXTURE_SUITE_CASES,
                         ids=lambda v: getattr(v, "category", str(v)))
def test_fixture_suites(a, expected):
    assert identity_suite(a).passed is expected


BRUTE_TAGS = ("associativity", "jacobi", "leibniz", "commutativity",
              "anticommutativity", "alternative")


def test_check_identity_agrees_with_brute_oracle_on_random_tensors():
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randrange(1, 4)
        tensor = tuple(tuple(tuple(rng.randrange(5) for _ in range(n))
                             for _ in range(n)) for _ in range(n))
        a = make_algebra(gf5, [f"e{i}" for i in range(n)], tensor, "raw")
        for tag in BRUTE_TAGS:
            assert check_identity(a, tag).passed == brute_identity(a, tag)
    # the random tensors above fail almost every law; satisfy each one too
    for a in (sl2(gf5), a5_leibniz(gf5), dual_numbers(gf5), m2_rationals(),
              abelian(QQ, 2), zero_algebra(gf5, 3, "raw")):
        for tag in BRUTE_TAGS:
            assert check_identity(a, tag).passed == brute_identity(a, tag), tag


def test_numpy_and_fraction_paths_report_identical_witnesses():
    # same integer tensor over GF(7) (numpy path) and Q (exact path)
    rng = random.Random(11)
    for _ in range(20):
        n = 3
        ints = [[[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)]
                for _ in range(n)]
        a_p = make_algebra(GF(7), "abc",
                           tuple(tuple(tuple(x % 7 for x in v) for v in r)
                                 for r in ints), "raw")
        a_q = make_algebra(QQ, "abc",
                           tuple(tuple(tuple(Fraction(x) for x in v) for v in r)
                                 for r in ints), "raw")
        for tag in IDENTITY_TAGS:
            rp, rq = check_identity(a_p, tag), check_identity(a_q, tag)
            # seeded draws verified free of mod-7 cancellation; frozen
            assert (rp.passed, rp.label, rp.witness) == (rq.passed, rq.label, rq.witness)
            if not rp.passed:
                assert rp.lhs == tuple(int(x) % 7 for x in rq.lhs)
                assert rp.rhs == tuple(int(x) % 7 for x in rq.rhs)


# At dim 3 the suite bound is 12 * big^2: with an entry p - 1 it sits just
# below 2^53 over FLOAT_EDGE (float64) and just above it over INT_EDGE (int64).
FLOAT_EDGE, INT_EDGE = GF(27397079), GF(27397103)
FIELDS = (GF(2), GF(3), GF(7), FLOAT_EDGE, INT_EDGE, GF(4294967291), QQ)


def exact_side(a, e, terms, idx):
    """Oracle for a witness side: one side of an identity row at the index
    tuple idx, by Algebra.multiply on the basis vectors e."""
    f = a.field
    out = vec_zero(f, a.dim)
    for sign, shape, perm in terms:
        ix = [idx[x] for x in perm]
        if shape == "T":
            val = a.tensor[ix[0]][ix[1]]
        elif shape == "L":
            val = a.multiply(a.tensor[ix[0]][ix[1]], e[ix[2]])
        else:
            val = a.multiply(e[ix[0]], a.tensor[ix[1]][ix[2]])
        out = (vec_add if sign > 0 else vec_sub)(f, out, val)
    return out


def first_exact_failure(a, tag):
    """Oracle for the witness: the first failing tuple, in row-then-
    lexicographic order, of a per-tuple sweep with the exact sides."""
    e = [basis_vector(a.field, a.dim, i) for i in range(a.dim)]
    for name, lhs, rhs in algebra.IDENTITIES[tag]:
        for idx in itertools.product(range(a.dim), repeat=len(lhs[0][2])):
            sides = exact_side(a, e, lhs, idx), exact_side(a, e, rhs, idx)
            if sides[0] != sides[1]:
                return Report(False, label=name, witness=idx, lhs=sides[0], rhs=sides[1])
    return None


def _check_against_oracles(a):
    for tag in IDENTITY_TAGS:
        rep = check_identity(a, tag)
        first = first_exact_failure(a, tag)
        if tag == "zero":
            expected = all(x == a.field.zero for p in a.tensor for v in p for x in v)
        else:
            expected = brute_identity(a, tag)
            if tag == "alternative" and a.field.char == 2 and expected:
                expected = loop_alternative_char2(a).passed
        assert rep.passed == expected, tag
        if first is not None:
            assert rep == first, tag


@st.composite
def small_algebras(draw):
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 3))
    if f is QQ:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:  # p - 1 and large entries drive GF(4294967291) onto Python ints
        scalar = st.one_of(st.integers(0, f.p - 1), st.just(f.p - 1))
    if draw(st.booleans()):
        # a structured algebra under a unipotent change of basis: it keeps
        # the laws it satisfies and gets mixed denominators or large entries
        a = draw(st.sampled_from((sl2, heisenberg, a5_leibniz, dual_numbers)))(f)
        p = Matrix.from_rows(f, (tuple(f.one if i == j else draw(scalar) if i < j else f.zero
                                       for j in range(a.dim)) for i in range(a.dim)))
        return make_algebra(f, a.basis, _conjugate(a, p, _inverse_rref(p)).tensor, "raw")
    if draw(st.integers(0, 3)) == 0:
        entries = [f.zero] * n ** 3
    else:
        entries = draw(st.lists(st.one_of(st.just(f.zero), scalar),
                                min_size=n ** 3, max_size=n ** 3))
    it = iter(entries)
    tensor = tuple(tuple(tuple(next(it) for _ in range(n)) for _ in range(n))
                   for _ in range(n))
    return make_algebra(f, [f"e{i}" for i in range(n)], tensor, "raw")


@settings(max_examples=200)
@given(small_algebras())
def test_kernel_agrees_with_per_tuple_oracles(a):
    _check_against_oracles(a)


def test_kernel_agrees_with_oracles_beyond_int64_over_q():
    # a change of basis with entry 3^40/7 (3^40 alone exceeds 2^63) and mixed
    # denominators: the scaled integers take the Python-int path
    big = Fraction(3 ** 40, 7)
    for a in (sl2(QQ), a5_leibniz(QQ), dual_numbers(QQ), heisenberg(QQ)):
        n = a.dim
        p = Matrix.from_rows(QQ, (tuple(Fraction(1) if i == j else
                                        (big if j == i + 1 else Fraction(-2, 3 + j)) if i < j
                                        else Fraction(0) for j in range(n)) for i in range(n)))
        b = _conjugate(a, p, _inverse_rref(p))
        assert identity_suite(b).passed
        _check_against_oracles(make_algebra(QQ, b.basis, b.tensor, "raw"))
    zero, one = Fraction(0), Fraction(1)
    mixed = (((big, Fraction(1, 3)), (zero, Fraction(-2, 5))), ((one, big), (big, zero)))
    _check_against_oracles(make_algebra(QQ, "ab", mixed, "raw"))


def test_rung_edge_primes_take_float64_and_int64():
    for f, dtype in ((FLOAT_EDGE, np.float64), (INT_EDGE, np.int64)):
        top = f.p - 1
        assert abs(12 * top ** 2 - 2 ** 53) < 2 ** 53 // 10 ** 5
        a = make_algebra(f, "abc", [[[top, top, top], [top, 1, 0], [0, top, top]],
                                    [[1, top, top], [top, top, top], [top, 0, top]],
                                    [[top, top, 0], [top, top, 1], [top, top, top]]], "raw")
        assert a.integer_tensor[1].dtype == dtype
        _check_against_oracles(a)


@pytest.mark.parametrize("top, dtype", [(2 ** 53 - 1, np.float64), (2 ** 53, np.int64),
                                        (2 ** 63 - 1, np.int64), (2 ** 63, object)])
def test_integer_array_takes_the_cheapest_exact_rung(top, dtype):
    for f, values, lam, ints in ((gf5, ((1, 7), (-3, 0)), 1, [[1, 7], [-3, 0]]),
                                 (QQ, ((Fraction(1, 2), Fraction(-1, 3)),), 6, [[3, -2]])):
        got_lam, arr = linalg.integer_array(f, values, (len(values), 2), lambda big: top)
        assert arr.dtype == dtype and got_lam == lam and linalg.exact_ints(arr).tolist() == ints


def _einsum_term(c, shape, perm):
    """Oracle for _np_term: one einsum on the dense tensor, labels 0-2 the
    witness indices, 3 the coordinate, 4 the summed index."""
    u, v, *w = perm
    subs = {"T": [(u, v, 3)], "L": [(u, v, 4), (4, *w, 3)], "R": [(v, *w, 4), (u, 4, 3)]}
    args = [x for labels in subs[shape] for x in (c, list(labels))]
    return np.einsum(*args, [*range(len(perm)), 3])


def _random_blocks(rng, m, n, dtype):
    """A random algebra.Blocks with parts of dims m and n, and the same
    tensor placed dense, zero wherever the block shape says."""
    b, a = slice(m), slice(m, m + n)
    c = np.zeros((m + n,) * 3, dtype=np.int64)
    for where in ((b, b, b), (b, a, a), (a, b, a), (a, a, a)):
        view = c[where]
        view[...] = rng.integers(-9, 10, size=view.shape)
    blocks = (c[b, b, b], c[b, a, a], c[a, b, a], c[a, a, a]) if n else (c,)
    return algebra.Blocks(*(x.astype(dtype) for x in blocks)), c.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_matmul_terms_equal_the_einsum_oracle(dtype):
    # every block of every term, whole and one leading index at a time,
    # against the einsum on the dense tensor: the coordinates outside the
    # part a block lands in are zero there
    rng = np.random.default_rng(0)
    sizes = [(n, 0) for n in range(1, 7)] + [(1, 1), (2, 1), (1, 2), (3, 2), (2, 3), (0, 2)]
    for m, n in sizes:
        t, c = _random_blocks(rng, m, n, dtype)
        ranges = (np.arange(m), np.arange(m, m + n))
        for shape, k in (("T", 2), ("L", 3), ("R", 3)):
            for perm in itertools.permutations(range(k)):
                dense = _einsum_term(c, shape, perm)
                for parts in itertools.product((0, 1), repeat=k):
                    if not all(len(ranges[x]) for x in parts):
                        continue
                    lands = max(parts)
                    want = dense[np.ix_(*(ranges[x] for x in parts), ranges[lands])]
                    assert not dense[np.ix_(*(ranges[x] for x in parts),
                                            ranges[1 - lands])].any()
                    got = algebra._np_term(t, shape, perm, parts, slice(None))
                    assert got.dtype == c.dtype and got.shape == want.shape, (shape, perm)
                    assert (got == want).all(), (m, n, shape, perm, parts)
                    for i in range(len(got)):
                        row = algebra._np_term(t, shape, perm, parts, slice(i, i + 1))
                        assert (row == want[i:i + 1]).all(), (m, n, shape, perm, parts, i)
                        for j in range(got.shape[1]):  # label 1 cut too
                            cell = algebra._np_term(t, shape, perm, parts, slice(i, i + 1),
                                                    slice(j, j + 2))
                            assert (cell == want[i:i + 1, j:j + 2]).all(), (shape, perm, parts)


# rows with integer coefficients other than +-1, as words.validate_word_on_algebra
# makes them: a term may weigh 0, and two weighted terms may cancel
WEIGHTED_ROWS = [
    ("(xy)z = 2 x(yz) - 3 (yx)z", [(1, "L", (0, 1, 2))],
     [(2, "R", (0, 1, 2)), (-3, "L", (1, 0, 2)), (0, "R", (2, 1, 0))]),
    ("z(xy) = 5 (zx)y - 5 (zx)y + 2 (zy)x", [(1, "R", (2, 0, 1))],
     [(5, "L", (2, 0, 1)), (-5, "L", (2, 0, 1)), (2, "L", (2, 1, 0))]),
]


@pytest.mark.parametrize("cells", [1, 5, 40, algebra.SWEEP_CELLS])
def test_first_failure_is_the_first_flagged_witness_of_the_dense_oracle(monkeypatch, cells):
    # sparse random Blocks, so that failures start late in a block; at small
    # budgets the all-B block is swept one leading index, then a few second
    # indices, at a time, and must stop at the first witness all the same
    monkeypatch.setattr(algebra, "SWEEP_CELLS", cells)
    rng = np.random.default_rng(5)
    for m, n in [(1, 0), (4, 0), (7, 0), (1, 2), (3, 1), (5, 2), (7, 3), (6, 1)]:
        for density in (0.02, 0.1, 0.5):
            c = _random_blocks(rng, m, n, np.int64)[1] * (rng.random((m + n,) * 3) < density)
            b, a = slice(m), slice(m, m + n)
            t = algebra.Blocks(*(c[b, b, b], c[b, a, a], c[a, b, a], c[a, a, a]) if n else (c,))
            lead_in_a = np.arange(m + n) >= m
            for tag, rows in list(algebra.IDENTITIES.items()) + [("weighted", WEIGHTED_ROWS)]:
                for _, lhs, rhs in rows:
                    terms = lhs + [(-s, shape, perm) for s, shape, perm in rhs]
                    k = len(terms[0][2])
                    diff = sum(s * _einsum_term(c, shape, perm) for s, shape, perm in terms)
                    flags = (diff != 0).any(axis=-1)
                    # none closed, the all-A block, it and the all-B one,
                    # every block, and random sets of blocks
                    patterns = list(itertools.product((0, 1), repeat=k))
                    fixed = [(), [(1,) * k], [(1,) * k, (0,) * k], patterns]
                    for closed in fixed + [[x for x in patterns if rng.random() < 0.5]
                                           for _ in range(4)]:
                        masked = flags.copy()
                        for block in closed:  # never evaluated: the block holds
                            masked[np.ix_(*(lead_in_a == x for x in block))] = False
                        want = (tuple(int(x) for x in np.argwhere(masked)[0])
                                if masked.any() else None)
                        got = algebra._first_failure(t, None, terms, frozenset(closed))
                        assert got == want, (m, n, density, tag, closed)


# every term of IDENTITIES, as (shape, perm)
IDENTITY_TERMS = sorted({(shape, perm) for rows in algebra.IDENTITIES.values()
                         for _, lhs, rhs in rows for _, shape, perm in lhs + rhs})


@pytest.mark.parametrize("dtype", [np.float64, np.int64, object])
def test_np_term_on_a_stack_is_np_term_on_each_slice(dtype):
    # a stack of four random Blocks, block by block, against each of them:
    # every term on every block, whole, one leading index, and a few second
    # indices of it
    rng = np.random.default_rng(3)
    for m, n in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (3, 2)]:
        slices = [_random_blocks(rng, m, n, dtype)[0] for _ in range(4)]
        stack = algebra.Blocks(*(None if b[0] is None else np.stack(b)
                                 for b in zip(*(t[:4] for t in slices))))
        for shape, perm in IDENTITY_TERMS:
            for parts in itertools.product((0, 1) if n else (0,), repeat=len(perm)):
                for cut in ((slice(None),), (slice(0, 1),), (slice(0, 1), slice(1, 3))):
                    got = algebra._np_term(stack, shape, perm, parts, *cut)
                    want = [algebra._np_term(t, shape, perm, parts, *cut) for t in slices]
                    assert got.dtype == want[0].dtype and got.shape == (4,) + want[0].shape
                    assert all((g == w).all() for g, w in zip(got, want)), \
                        (m, n, shape, perm, parts, cut)


FLAG_FIELDS = (GF(2), GF(3), gf5, GF(2 ** 31 - 1), GF(2 ** 61 - 1), QQ)
FLAG_CATEGORIES = ("lie", "leibniz", "associative", "commutative")


@functools.cache
def _passing_tensors(field, n):
    """Exact integer tensors of dim n that pass some of the suites: zero,
    sl2 and Heisenberg at dim 3, and sampled algebras of each category."""
    algebras = [zero_algebra(field, n, "leibniz")] + ([sl2(field), heisenberg(field)]
                                                      if n == 3 else [])
    algebras += [sample_algebra(random.Random(seed), field, n, category)
                 for category in FLAG_CATEGORIES for seed in range(2)]
    return [linalg.exact_ints(a.integer_tensor[1]) for a in algebras]


@pytest.mark.parametrize("category", FLAG_CATEGORIES)
@pytest.mark.parametrize("field", FLAG_FIELDS, ids=str)
@settings(max_examples=15)
@given(data=st.data())
def test_suite_flags_are_the_identity_suite_of_each_tensor(field, category, data):
    # a stack of random tensors, full, symmetric or antisymmetric, with
    # passing ones at random positions: each flag is the verdict of the
    # identity suite on that tensor alone
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    top = field.p - 1 if field.p else data.draw(st.sampled_from((3, 2 ** 20, 2 ** 30)))
    passing = _passing_tensors(field, n)
    stack = []
    for _ in range(data.draw(st.integers(1, 12))):
        kind = data.draw(st.sampled_from(("passing", "full", "sym", "antisym")))
        if kind == "passing":
            stack.append(passing[data.draw(st.integers(0, len(passing) - 1))])
            continue
        c = rng.integers(-top, top + 1, (n, n, n))
        stack.append(c if kind == "full" else c + c.transpose(1, 0, 2) if kind == "sym"
                     else c - c.transpose(1, 0, 2))
    stack = np.stack(stack)
    flags = algebra.suite_flags(stack, category, field.p)
    assert flags.shape == (len(stack),)
    for k, c in enumerate(stack):
        a = make_algebra(field, corpus._names(n), corpus._scalars(field, c), category)
        assert flags[k] == identity_suite(a).passed, (k, field, category)


def test_nonzero_mod_on_float64_equals_remainder_on_int64():
    rng = np.random.default_rng(2)
    top = 2 ** 53 - 1
    for p in (2, 3, 5, 7, 27397079, 4294967291, 2 ** 53 + 5, 2 ** 61 - 1):
        k = rng.integers(-(top // p), top // p + 1, size=3000)
        vals = np.concatenate([rng.integers(-top, top + 1, size=3000), k * p, k * p + 1,
                               k * p - 1, [0, 1, -1, top, -top, p, -p, top // p * p]])
        vals = vals[np.abs(vals) <= top]
        want = np.remainder(vals, p) != 0
        assert (linalg.nonzero_mod(vals.astype(np.float64), p) == want).all(), p
        assert (linalg.nonzero_mod(vals.copy(), p) == want).all(), p
    assert (linalg.nonzero_mod(np.array([0.0, 5.0]), None) == [False, True]).all()


def test_large_prime_suites_pass_without_int64_overflow():
    # over GF(4294967291) one product of two entries already exceeds 2^63;
    # over GF(536870909) products reach 2^58, exact in int64 and not in
    # float64; conjugating spreads large entries over the whole tensor
    for f in (GF(536870909), GF(4294967291)):
        rng = random.Random(0)
        for a in (sl2(f), diagonal_algebra(f, 3)):
            b = _conjugate(a, *_rand_invertible(rng, f, a.dim))
            rep = identity_suite(b)
            assert rep.passed, (f, a.category, rep.label, rep.witness)


def test_witness_is_lexicographically_first():
    # fails anticommutativity at (0,0) and also at (1,1); must report (0,0)
    t = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    t[0][0] = [1, 0]
    t[1][1] = [0, 1]
    a = make_algebra(gf5, "ab", tuple(tuple(tuple(v) for v in r) for r in t), "raw")
    rep = check_identity(a, "anticommutativity")
    assert not rep.passed and rep.witness[:2] == (0, 0)


def test_identity_suite_respects_category_override():
    a = m2_rationals()
    assert identity_suite(a).passed
    assert not identity_suite(a, "commutative").passed
    assert identity_suite(a, "alternative").passed


def test_module_category_forces_zero_tensor():
    t = (((QQ.one,),),)
    with pytest.raises(InputError):
        make_algebra(QQ, "x", t, "module")


def test_make_algebra_rejects_bad_shapes_and_names():
    z = ((QQ.zero,),)
    with pytest.raises(InputError):
        make_algebra(QQ, ["x", "x"], (z, z), "lie")  # duplicate names
    with pytest.raises(InputError):
        make_algebra(QQ, ["x"], ((),), "lie")  # ragged tensor
    with pytest.raises(InputError):
        make_algebra(QQ, ["x"], (z,), "nonsense")


def test_algebra_json_round_trip():
    for a in (sl2(), a5_leibniz(GF(5)), zero_algebra(QQ, 2, "module")):
        b = algebra_from_json(a.to_json())
        assert b.tensor == a.tensor and b.category == a.category \
            and b.field == a.field and b.basis == a.basis


@st.composite
def json_algebras(draw):
    f = draw(st.sampled_from((GF(2), gf5, QQ)))
    n = draw(st.integers(0, 4))
    category = draw(st.sampled_from(CATEGORIES))
    if category == "module":
        scalar = st.just(f.zero)
    elif f is QQ:
        scalar = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    else:
        scalar = st.integers(0, f.p - 1)
    it = iter(draw(st.lists(scalar, min_size=n ** 3, max_size=n ** 3)))
    tensor = tuple(tuple(tuple(next(it) for _ in range(n)) for _ in range(n))
                   for _ in range(n))
    basis = draw(st.lists(st.text(min_size=1, max_size=3), min_size=n, max_size=n,
                          unique=True))
    return make_algebra(f, basis, tensor, category)


@settings(max_examples=100)
@given(json_algebras())
def test_algebra_json_round_trip_on_sampled_algebras(a):
    assert algebra_from_json(json.loads(json.dumps(a.to_json()))) == a


def test_algebra_from_json_rejects_unknown_and_missing_keys():
    good = sl2().to_json()
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(InputError):
        algebra_from_json(bad)
    bad = dict(good)
    del bad["dim"]
    with pytest.raises(InputError):
        algebra_from_json(bad)
    bad = dict(good)
    bad["products"] = [{"i": 0, "j": 1, "v": [0, 0, 1], "w": 2}]
    with pytest.raises(InputError):
        algebra_from_json(bad)


def _with(**changes):
    obj = sl2().to_json()
    obj.update(changes)
    return obj


@pytest.mark.parametrize("obj", [
    _with(products=[{"i": 0, "j": 1, "v": [0, 0, 1]}, {"i": 0, "j": 1, "v": [0, 0, 2]}]),
    _with(products=[{"i": True, "j": 1, "v": [0, 0, 1]}]),
    _with(products=[{"i": 0, "j": False, "v": [0, 0, 1]}]),
    _with(products=[{"i": "0", "j": 1, "v": [0, 0, 1]}]),
    _with(products=[{"i": 1.0, "j": 1, "v": [0, 0, 1]}]),
    _with(products=5),
    _with(dim=True, basis=["x"], products=[]),
], ids=["duplicate", "bool-i", "bool-j", "str-i", "float-i", "products-int", "bool-dim"])
def test_algebra_from_json_rejects_malformed_products(obj):
    with pytest.raises(InputError):
        algebra_from_json(obj)


def test_fixture_files_load(tmp_path):
    a = algebra_from_json(load_fixture("sl2.json"))
    assert a.dim == 3 and identity_suite(a).passed


def test_annihilator_extremes():
    assert annihilator(m2_rationals()).nrows == 0
    assert annihilator(zero_algebra(gf5, 3, "raw")).nrows == 3
    # heisenberg: z kills everything
    ann = annihilator(heisenberg())
    assert ann.nrows == 1 and ann.contains((QQ.zero, QQ.zero, QQ.one))
    # dim 0: the empty RREF of width 0, with no pivots, over both fields
    for f in (gf5, QQ):
        ann = annihilator(zero_algebra(f, 0, "raw"))
        assert (ann.nrows, ann.ncols, ann.pivots, ann.rows) == (0, 0, (), ())


def test_derived_subspace():
    assert derived_subspace(sl2()).nrows == 3  # perfect
    d = derived_subspace(heisenberg())
    assert d.nrows == 1 and d.contains((QQ.zero, QQ.zero, QQ.one))
    assert derived_subspace(zero_algebra(QQ, 2, "raw")).nrows == 0


def test_ideal_and_quotient_of_heisenberg():
    h = heisenberg()
    center = Matrix.from_rows(QQ, [(QQ.zero, QQ.zero, QQ.one)]).rref()
    assert is_ideal(h, center).passed
    q, proj = quotient(h, center)
    assert q.dim == 2
    assert identity_suite(q, "lie").passed
    assert all(all(x == QQ.zero for x in q.tensor[i][j])
               for i in range(2) for j in range(2))
    assert proj.apply((QQ.one, QQ.zero, QQ.one)) == (QQ.one, QQ.zero)


def test_non_ideal_refused():
    h = heisenberg()
    notideal = Matrix.from_rows(QQ, [(QQ.one, QQ.zero, QQ.zero)]).rref()
    assert not is_ideal(h, notideal).passed
    with pytest.raises(InputError):
        quotient(h, notideal)
    with pytest.raises(InputError, match="ambient dimension mismatch"):
        is_ideal(h, Matrix.from_rows(QQ, [(QQ.one, QQ.zero)]).rref())
    # the first row of M2 is a right ideal, not a left one: E21*E11 = E21
    m2 = m2_rationals()
    row1 = Matrix.from_rows(QQ, [basis_vector(QQ, 4, i) for i in (0, 1)]).rref()
    rep = is_ideal(m2, row1)
    assert (rep.passed, rep.label, rep.witness) == (False, "e_j*v stays in subspace", (0, 2))


def test_quotient_by_whole_algebra_is_empty():
    h = heisenberg()
    whole = Matrix.from_rows(QQ, [basis_vector(QQ, 3, i) for i in range(3)]).rref()
    q, proj = quotient(h, whole)
    assert q.dim == 0 and identity_suite(q).passed
    # the projection onto F^0 keeps the width of A, so it applies to A
    assert (proj.nrows, proj.ncols) == (0, 3)
    assert proj.apply((QQ.one, QQ.zero, QQ.one)) == ()


def test_alternative_char2_laws_have_no_dimension_cap():
    # the quadratic laws are read at the n basis vectors, so no dimension is
    # refused: the zero algebra passes at dims 17 and 32 as at 3 and 16
    for n in (3, 16, 17, 32):
        assert check_identity(zero_algebra(GF(2), n, "raw"), "alternative").passed


def test_alternative_char2_catches_quadratic_failure(tmp_path, capsys):
    # y*x = x and y*y = x + y over GF(2): both linearized rows hold on every
    # basis triple, so only the quadratic laws can fail, and both do at
    # x = y = e_1, where (yy)y = x + y and y(yy) = y
    f = GF(2)
    t = [[[f.zero] * 2 for _ in range(2)] for _ in range(2)]
    t[1][0] = [f.one, f.zero]
    t[1][1] = [f.one, f.one]
    a = make_algebra(f, "xy", tuple(tuple(tuple(v) for v in r) for r in t), "alternative")
    assert first_exact_failure(a, "alternative") is None
    assert not brute_alternative_char2(a)
    rep = check_identity(a, "alternative")
    assert rep == loop_alternative_char2(a)
    assert (rep.label, rep.witness) == ("char-2 exhaustive: (xx)y=x(xy), y(xx)=(yx)x", (0, 1, 1))
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(a.to_json()))
    assert cli.main(["check", str(path)]) == 1
    assert capsys.readouterr().out == (
        '{"category": "alternative", "dim": 2, "report": {"details": [{"label": '
        '"char-2 exhaustive: (xx)y=x(xy), y(xx)=(yx)x", "name": "alternative", '
        '"status": "fail"}], "label": "char-2 exhaustive: (xx)y=x(xy), y(xx)=(yx)x", '
        '"passed": false, "witness": [0, 1, 1]}}\n')


def brute_alternative_char2(a):
    """Oracle: test both alternative laws on every pair of elements."""
    f = a.field
    n = a.dim
    from itertools import product
    vecs = [tuple(v) for v in product(range(f.p), repeat=n)]
    for x in vecs:
        for y in vecs:
            xx = a.multiply(x, x)
            if a.multiply(xx, y) != a.multiply(x, a.multiply(x, y)):
                return False
            yy = a.multiply(y, y)
            if a.multiply(x, yy) != a.multiply(a.multiply(x, y), y):
                return False
    return True


def loop_alternative_char2(a):
    """Oracle: the per-vector loop of the char-2 quadratic laws, x(xy) =
    (xx)y and (yx)x = y(xx) for every vector x against every basis y, by
    Algebra.multiply; the Report of the first failing coords + (j,)."""
    f, n = a.field, a.dim
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


def test_alternative_char2_arrays_equal_the_per_vector_loop():
    # the suite's Report is the first exact row failure, or else the
    # per-vector loop's, on every GF(2) tensor of dims 0-2, 300 random ones
    # at dims 1-5, sparse enough that some pass, and associative ones
    f = GF(2)

    def gf2_algebra(n, bits):
        it = iter(bits)
        return make_algebra(f, [f"e{i}" for i in range(n)],
                            [[[f.from_int(next(it)) for _ in range(n)] for _ in range(n)]
                             for _ in range(n)], "raw")

    algebras = [gf2_algebra(n, bits)
                for n in (0, 1, 2) for bits in itertools.product((0, 1), repeat=n ** 3)]
    algebras.append(zero_algebra(f, 5, "raw"))
    rng = random.Random(11)
    for _ in range(300):
        n, density = rng.randint(1, 5), rng.choice((0.05, 0.2, 0.5))
        algebras.append(gf2_algebra(n, [rng.random() < density for _ in range(n ** 3)]))
    m2 = m2_rationals()
    algebras += [dual_numbers(f), truncated_poly(f, 3),
                 make_algebra(f, m2.basis, [[[f.from_int(int(x)) for x in v] for v in plane]
                                            for plane in m2.tensor], "raw")]
    passed = quadratic = 0
    for a in algebras:
        rep = check_identity(a, "alternative")
        want = first_exact_failure(a, "alternative") or loop_alternative_char2(a)
        assert rep.passed == want.passed and (rep.passed or rep == want), a.tensor
        passed += want.passed
        quadratic += want.label == "char-2 exhaustive: (xx)y=x(xy), y(xx)=(yx)x"
    assert 10 < passed < len(algebras) - 100 and quadratic >= 6


def test_zero_dimensional_algebra_is_legal():
    a = make_algebra(QQ, (), (), "lie")
    assert a.dim == 0 and identity_suite(a).passed
