"""Views built on first read, against the per-entry loops they replace.

A Matrix made by rref, nullspace or from_ints holds an exact integer array
and its denominator; a candidate holds its span, and its integer pairs,
structure constants, maps and tensor are views of the span; the induced
action and the semidirect product hold functions of those.  The field scalars are built only when something reads them.  The
oracles below are the per-entry loops that used to build them eagerly,
kept here to check the lazily built views on fixtures and seeded samples,
and the pins check that no verdict, `exists` or `not-exists`, builds them
at all.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from artifact import algebra, constructions, existence
from artifact.actions import ActionPair, make_action, semidirect
from artifact.algebra import SUITES, identity_suite, make_algebra
from artifact.constructions import KIND_TABLE, construct, semidirect_tensor
from artifact.corpus import (a5_leibniz, abelian, dual_numbers, heisenberg, m2_rationals,
                             sample_algebra, sl2, truncated_poly, zero_algebra)
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ
from artifact.linalg import Matrix, vec_zero

from conftest import solve
from test_algebra import first_exact_failure
from test_constructions import dense_tensor, oracle_constraints

# ---------------------------------------------------------------------------
# oracles: the eager per-entry loops


def is_built(obj, name: str) -> bool:
    """Whether the lazy field or cached property name of obj holds its
    value yet."""
    return name in vars(obj) and not callable(vars(obj)[name])


def oracle_maps(actor):
    """The basis pairs, each flattened basis row of the span cut into n x n
    blocks, the right component following the kind's rule."""
    f, n = actor.target.field, actor.target.dim
    nn = n * n

    def unflatten(flat):
        return Matrix.from_rows(f, (tuple(flat[r * n + c] for c in range(n)) for r in range(n)))

    return tuple(constructions._pair(actor.kind, *(unflatten(row[k:k + nn])
                                                   for k in range(0, len(row), nn)))
                 for row in actor.span.rows)


def oracle_tensor(actor):
    """The structure constants, each entry of the integer constants over
    their denominator."""
    f = actor.target.field
    den, consts = actor.constants
    scalar = (lambda x: x) if f.p is not None else (lambda x: Fraction(x, den))
    return tuple(tuple(tuple(scalar(x) for x in row) for row in plane)
                 for plane in consts.tolist())


def oracle_action(actor):
    """The induced action, read column by column off the oracle's pairs,
    acting by the oracle's tensor."""
    A, maps = actor.target, oracle_maps(actor)
    n, m = A.dim, len(maps)
    left = tuple(tuple(bm.left.col(j) for j in range(n)) for bm in maps)
    right = tuple(tuple(maps[b].right.col(i) for b in range(m)) for i in range(n))
    B = make_algebra(A.field, [f"{actor.kind}{i}" for i in range(m)], oracle_tensor(actor),
                     KIND_TABLE[actor.kind].category)
    return make_action(B, A, left, right)


def oracle_semidirect_tensor(act):
    """The semidirect product's tensor, block by block."""
    B, A = act.B, act.A
    f = A.field
    nB, nA = B.dim, A.dim

    def bvec(v):
        return tuple(v) + vec_zero(f, nA)

    def avec(v):
        return vec_zero(f, nB) + tuple(v)

    tensor = []
    for i in range(nB + nA):
        plane = []
        for j in range(nB + nA):
            if i < nB and j < nB:
                plane.append(bvec(B.tensor[i][j]))
            elif i < nB:
                plane.append(avec(act.left[i][j - nB]))
            elif j < nB:
                plane.append(avec(act.right[i - nB][j]))
            else:
                plane.append(avec(A.tensor[i - nB][j - nB]))
        tensor.append(tuple(plane))
    return tuple(tensor)


def _assert_views_match_oracles(actor):
    assert actor.maps == oracle_maps(actor), actor.kind
    assert actor.tensor == oracle_tensor(actor), actor.kind
    act, want = actor.action_pair(), oracle_action(actor)
    assert (act.left, act.right, act.B, act.A) == (want.left, want.right, want.B, want.A)
    assert semidirect(act).tensor == oracle_semidirect_tensor(want), actor.kind
    scalar = Fraction if actor.target.field.p is None else int
    for bm in actor.maps:
        assert all(type(x) is scalar for m in (bm.left, bm.right) for row in m.rows for x in row)


FIXTURE_ACTORS = [("der", sl2()), ("der", heisenberg()), ("der", abelian(QQ, 2)),
                  ("bim", m2_rationals()), ("bim", dual_numbers()), ("bider1", a5_leibniz()),
                  ("bider2", a5_leibniz()), ("mult", truncated_poly(QQ, 2, "commutative")),
                  ("zero", zero_algebra(QQ, 2, "module")), ("der", sl2(GF(5))),
                  ("bider1", zero_algebra(GF(3), 2, "leibniz")),
                  ("bim", zero_algebra(GF(2 ** 61 - 1), 1, "associative"))]


@pytest.mark.parametrize("kind,a", FIXTURE_ACTORS, ids=lambda x: getattr(x, "category", x))
def test_lazy_views_equal_the_per_entry_loops_on_fixtures(kind, a):
    _assert_views_match_oracles(construct(kind, a))


@st.composite
def sampled_algebras(draw):
    f = draw(st.sampled_from((GF(2), GF(3), GF(5), QQ)))
    category = draw(st.sampled_from(("lie", "leibniz", "associative", "commutative")))
    n = draw(st.integers(1, 3 if f.p else 2))
    return sample_algebra(random.Random(draw(st.integers(0, 5))), f, n, category)


@settings(max_examples=40)
@given(sampled_algebras())
def test_lazy_views_equal_the_per_entry_loops_on_samples(a):
    _assert_views_match_oracles(actor_pipeline(a).actor)


@pytest.mark.parametrize("kind,a", FIXTURE_ACTORS[:8], ids=lambda x: getattr(x, "category", x))
def test_candidate_span_is_the_rref_of_the_sympy_nullspace(kind, a):
    # the nullspace read off the reversed-column RREF, against sympy's
    actor = construct(kind, a)
    mat, syms = oracle_constraints(a, kind[:5] if kind.startswith("bider") else kind)
    null = mat.nullspace()
    want = sp.Matrix.hstack(*null).T.rref()[0].tolist() if null else []
    want = [tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in want if any(row)]
    assert list(actor.span.rows) == want


# ---------------------------------------------------------------------------
# what an exists verdict builds, and what a not-exists one does


def _traced_pipeline(monkeypatch, a):
    """actor_pipeline(a), with the constraint Matrix and the induced action
    it made."""
    seen = {}
    build = constructions._build_actor
    monkeypatch.setattr(constructions, "_build_actor", lambda kind, A, rows:
                        seen.setdefault("rows", rows) and build(kind, A, rows))
    make_product = existence.semidirect
    monkeypatch.setattr(existence, "semidirect",
                        lambda act: seen.setdefault("act", act) and make_product(act))
    return actor_pipeline(a), seen["rows"], seen["act"]


@pytest.mark.parametrize("a", [sl2(), sl2(GF(5)), m2_rationals(), abelian(GF(5), 3, "lie"),
                               truncated_poly(QQ, 2, "commutative"), a5_leibniz(),
                               dual_numbers()],
                         ids=["sl2", "sl2-gf5", "m2", "abelian-gf5", "truncated-poly", "a5",
                              "dual"])
def test_an_exists_verdict_builds_no_field_scalars(monkeypatch, a):
    v, rows, act = _traced_pipeline(monkeypatch, a)
    assert v.exists
    assert not is_built(rows, "rows")
    assert not is_built(v.actor, "maps") and not is_built(v.actor, "tensor")
    assert not is_built(act, "left") and not is_built(act, "right")
    assert not is_built(act.B, "tensor") and not is_built(v.semidirect_product, "tensor")
    # the span's basis and the candidate's rows are still there to read
    assert v.actor.maps == oracle_maps(v.actor)


def _square_zero(f, category):
    """e2 * e2 = -4 e0 + 8 e1 and every other product zero, in any category
    but the Lie one.  Over a prime past 2^61 the residue p - 4 puts the
    semidirect tensor on the object rung."""
    z = (f.zero,) * 3
    top = (f.from_int(-4), f.from_int(8), f.zero)
    return make_algebra(f, "abc", [[z, z, z], [z, z, z], [z, z, top]], category)


# each actor does not exist; the last two have mixed denominators over Q, so
# their semidirect tensors have lam = 18 and 63480
NOT_EXISTS = [zero_algebra(QQ, 1, "leibniz"), zero_algebra(GF(5), 2, "leibniz"),
              zero_algebra(QQ, 2, "associative"), zero_algebra(GF(3), 2, "commutative"),
              sample_algebra(random.Random(0), GF(5), 3, "leibniz"),
              _square_zero(GF(2 ** 61 - 1), "leibniz"),
              _square_zero(GF(18446744073709551629), "associative"),
              sample_algebra(random.Random(0), QQ, 3, "leibniz"),
              sample_algebra(random.Random(6), QQ, 3, "associative")]


@pytest.mark.parametrize("a", NOT_EXISTS,
                         ids=["zero-leibniz-q", "zero-leibniz-gf5", "zero-assoc-q",
                              "zero-comm-gf3", "sampled-leibniz-gf5",
                              "square-zero-leibniz-gf2^61-1", "square-zero-assoc-gf2^64+13",
                              "sampled-leibniz-q", "sampled-assoc-q"])
def test_a_not_exists_verdict_gives_the_eager_witness_sides(monkeypatch, a):
    v, rows, act = _traced_pipeline(monkeypatch, a)
    assert not v.exists and not is_built(rows, "rows")
    # the suite reads its witness sides off the integer tensor, so the
    # verdict builds no field scalar of the candidate, its action or the
    # product, and neither does asking for the sides again
    lam, blocks = semidirect_tensor(v.actor)
    got = identity_suite(v.semidirect_product, a.category, c=(lam, blocks))
    assert not is_built(got, "lhs") and not is_built(got, "rhs")  # made when read
    assert not is_built(v.actor, "maps") and not is_built(v.actor, "tensor")
    assert not is_built(act, "left") and not is_built(act, "right")
    assert not is_built(act.B, "tensor") and not is_built(v.semidirect_product, "tensor")
    # the Algebra.multiply oracle on the eagerly built product
    eager = make_algebra(a.field, v.semidirect_product.basis,
                         oracle_semidirect_tensor(oracle_action(v.actor)), "raw")
    # the blocks, placed dense, are the eager product's integer tensor
    want_lam, want_c = eager.integer_tensor
    c = dense_tensor(blocks)
    assert lam == want_lam and c.dtype == want_c.dtype and np.array_equal(c, want_c)
    assert c.dtype == object or a.field.p is None or a.field.p < 2 ** 61
    want = next(filter(None, (first_exact_failure(eager, tag) for tag in SUITES[a.category])))
    assert (got.label, got.witness, got.lhs, got.rhs) == (want.label, want.witness,
                                                          want.lhs, want.rhs)
    scalar = Fraction if a.field.p is None else int
    assert all(type(x) is scalar for x in got.lhs + got.rhs)
    assert v.failure == {"label": want.label, "witness": list(want.witness)}


# ---------------------------------------------------------------------------
# which verdicts build the candidate's structure constants


def test_only_bider_and_mult_suites_read_the_constants():
    # an open block of the kind's suite with a term at Blocks field 0, bb;
    # the zero actor's module suite closes none, and its constants are empty
    assert {k: constructions._reads_bb(k) for k in KIND_TABLE} == {
        "der": False, "bim": False, "bider1": True, "bider2": True, "mult": False,
        "zero": True}
    # the condition rows on B x B x A have no term at bb
    for _, (_, lhs, rhs) in constructions._CONDITIONS.values():
        assert all(0 not in algebra._term_plan(shape, perm, (0, 0, 1), (0,))[0:3:2]
                   for _, shape, perm in lhs + rhs)


def _assert_blocks_read_constants(v, built):
    m = v.actor.dim
    assert is_built(v.actor, "constants") == built, v.actor.kind
    shape = (m, m, m) if built else (m, 0, 0)
    assert v.actor.semidirect_blocks[1].bb.shape == shape


@pytest.mark.parametrize("a", [sl2(), sl2(GF(5)), abelian(GF(5), 3, "lie"), m2_rationals(),
                               dual_numbers()] + [a for a in NOT_EXISTS
                                                  if a.category == "associative"]
                         + [zero_algebra(GF(5), 6, "associative")],
                         ids=["sl2", "sl2-gf5", "abelian-gf5", "m2", "dual", "zero-assoc-q",
                              "square-zero-assoc-gf2^64+13", "sampled-assoc-q",
                              "zero-assoc-gf5-dim6"])
def test_der_and_bim_verdicts_build_no_constants(a):
    # closure is a theorem for both kinds, so no certificate runs either
    v = actor_pipeline(a)
    assert v.actor.kind in ("der", "bim")
    _assert_blocks_read_constants(v, built=False)


@pytest.mark.parametrize("a", [a5_leibniz(), truncated_poly(QQ, 2, "commutative")]
                         + [a for a in NOT_EXISTS if a.category in ("leibniz", "commutative")],
                         ids=["a5", "truncated-poly", "zero-leibniz-q", "zero-leibniz-gf5",
                              "zero-comm-gf3", "sampled-leibniz-gf5",
                              "square-zero-leibniz-gf2^61-1", "sampled-leibniz-q"])
def test_bider_and_mult_verdicts_build_their_constants(a):
    # the mult blocks that read them, ABB and BB, are dominated by BAB
    v = actor_pipeline(a)
    assert v.actor.kind in ("bider1", "mult")
    _assert_blocks_read_constants(v, built=v.actor.kind == "bider1")


def test_the_zero_associative_algebra_of_dim_16_is_decided_without_constants():
    # 512 bimultipliers: the (512, 512, 512) constants on the semidirect
    # rung took 1.2 GB and most of 2.8 s when verdicts built them
    v = actor_pipeline(zero_algebra(GF(5), 16, "associative"))
    assert (v.status, v.actor_dim) == ("not-exists", 512)
    assert v.failure == {"label": "(x*y)*z = x*(y*z)", "witness": [0, 512, 272]}
    _assert_blocks_read_constants(v, built=False)


@pytest.mark.parametrize("a", [sl2(), zero_algebra(GF(5), 6, "associative")],
                         ids=["sl2-der", "zero-assoc-gf5-dim6-bim"])
def test_repr_eq_and_hash_of_a_candidate_read_only_its_span(a):
    # a candidate is its kind, target and span; its views are not compared,
    # hashed or printed, so none of them is built
    v, w = actor_pipeline(a), actor_pipeline(a)
    assert v.actor.kind in ("der", "bim")
    assert v.actor == w.actor and hash(v.actor) == hash(w.actor)
    assert repr(v.actor).startswith(f"ActorAlgebra(kind={v.actor.kind!r}, ")
    assert repr(v) == repr(w) and v == w
    for actor in (v.actor, w.actor):
        assert not any(is_built(actor, name) for name in ("maps", "tensor", "constants"))


def test_a_lazy_field_is_built_once_and_kept():
    calls = []
    m = Matrix(QQ, lambda: calls.append(1) or ((Fraction(1, 2),),), np.array([[1]]), 2)
    assert not is_built(m, "rows")
    assert m.rows == m.rows == ((Fraction(1, 2),),) and calls == [1]
    assert is_built(m, "rows")
    act = ActionPair(sl2(), sl2(), lambda: calls.append(2) or (), ())
    assert act.right == () and calls == [1] and not is_built(act, "left")
    # a field not given is its view of the instance, built on first read;
    # it is neither compared, hashed nor printed
    a = sl2()
    assert not is_built(a, "integer_tensor") and "integer_tensor" not in repr(a)
    assert a == sl2() and hash(a) == hash(sl2()) and not is_built(a, "integer_tensor")
    assert a.integer_tensor is a.integer_tensor and is_built(a, "integer_tensor")


# ---------------------------------------------------------------------------
# the array-backed Matrix against the same entries given as rows

DIFF_FIELDS = (GF(2), GF(3), GF(5), GF(2 ** 61 - 1), GF(18446744073709551629), QQ)
BIG = 3 ** 45


@st.composite
def quotient_matrices(draw):
    """(field, ints, den): den times a matrix as Python ints, reduced mod p
    over GF(p) with den 1; over Q with denominators up to 3^45.  Shapes
    cover dims 0 and 1, zero and full-rank matrices."""
    f = draw(st.sampled_from(DIFF_FIELDS))
    ncols = draw(st.integers(0, 5))
    nrows = draw(st.integers(0 if ncols == 0 else 1, 5))
    shape = draw(st.sampled_from(("random", "zero", "full")))
    if f.p is None:
        entry = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
        den = draw(st.sampled_from((1, 6, BIG, BIG * 7 + 1)))
    else:
        entry = st.one_of(st.integers(0, min(f.p - 1, 3)), st.integers(0, f.p - 1))
        den = 1
    ints = [[0 if shape == "zero" else draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if shape == "full":  # a nonzero diagonal, so the rank is min(nrows, ncols)
        for i in range(min(nrows, ncols)):
            ints[i][i] = den
            for k in range(i):
                ints[i][k] = 0
    return f, ints, den


def _scalar(f, x, den):
    return x % f.p if f.p is not None else Fraction(x, den)


def _dtype_for(f, ints):
    big = max((abs(x) for row in ints for x in row), default=0)
    return object if big >= 2 ** 62 else np.int64


@settings(max_examples=300)
@given(quotient_matrices(), st.data())
def test_array_backed_matrix_equals_the_rows_route(case, data):
    f, ints, den = case
    nrows, ncols = len(ints), len(ints[0]) if ints else 0
    arr = np.array(ints, dtype=_dtype_for(f, ints)).reshape(nrows, ncols)
    got = Matrix.from_quotient(f, arr, den)
    want = Matrix.from_rows(f, [[_scalar(f, x, den) for x in row] for row in ints])
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert got.rows == want.rows and got == want and hash(got) == hash(want)
    red = got.rref()
    assert red == want.rref() and red.rows == want.rref().rows
    assert (red.pivots, red.ncols) == (want.rref().pivots, want.rref().ncols)
    assert red.rref() is red and got.rank() == len(red.pivots)
    assert got.nullspace() == want.nullspace()
    assert got.nullspace().rows == want.nullspace().rows
    lam, scaled = got.scaled()
    assert (lam, scaled.tolist()) == (lambda r: (r[0], r[1].tolist()))(want.scaled())
    if f.p is not None:
        # the same rows shifted by multiples of p, negative, p itself and
        # p + 1 among them: kept as given, reduced once to the same matrix
        shifts = [[data.draw(st.integers(-1, 1)) for _ in row] for row in ints]
        raw = Matrix.from_rows(f, [[x + f.p * k for x, k in zip(row, ks)]
                                   for row, ks in zip(ints, shifts)])
        assert (raw.nrows, raw.ncols) == (nrows, ncols)
        assert (raw.rref(), raw.rref().pivots) == (red, red.pivots)
        assert raw.nullspace().rows == want.nullspace().rows
        assert (raw.scaled()[0], raw.scaled()[1].tolist()) == (lam, scaled.tolist())
    b = tuple(_scalar(f, data.draw(st.integers(-3, 3)), 1) for _ in range(nrows))
    assert solve(got, b) == solve(want, b)
    scalar = Fraction if f.p is None else int
    for m in (red, got.nullspace()):
        assert all(type(x) is scalar for row in m.rows for x in row)
