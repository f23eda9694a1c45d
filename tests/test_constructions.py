"""Actor candidates against independent sympy oracles.

The oracles restate the defining equations symbolically (sympy matrices,
linear_eq_to_matrix, rank) with none of the package's row-assembly code, so
a bookkeeping slip on either side shows up as a dimension or membership
mismatch.  Expected dimensions were computed by these oracles first and are
frozen below.
"""

import itertools
import json
import math
import random
import re
import types
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from artifact import algebra, constructions, existence
from artifact.actions import conjugation_action, make_action, semidirect
from artifact.algebra import (IDENTITIES, SUITES, InputError, identity_suite,
                             is_ideal, make_algebra)
from artifact.constructions import (KIND_TABLE, BiMap, ClosureError,
                                    ConstructionError, actor_from_json,
                                    biderivations, bimultipliers, canonical_d,
                                    condition1_check, condition2_check,
                                    construct, crossed_module_check,
                                    derivations, factor_through_actor, multipliers,
                                    semidirect_tensor, sufficient_conditions,
                                    zero_actor)
from artifact.corpus import (_conjugate, _inverse_rref, _rand_invertible, a5_leibniz, abelian,
                             diagonal_algebra, dual_numbers, heisenberg,
                             m2_rationals, sample_algebra, sl2, truncated_poly,
                             zero_algebra)
from artifact.existence import actor_pipeline, bider_variants_agree
from artifact.fields import GF, QQ
from artifact.linalg import Matrix, basis_vector, vec_add, vec_sub, vec_zero

from test_algebra import exact_side


# ---------------------------------------------------------------------------
# oracle: symbolic nullspace of the defining equations


def _sym_mul(a, u, v):
    n = a.dim
    return [sp.expand(sum(u[i] * v[j] * sp.Rational(a.tensor[i][j][m])
                          for i in range(n) for j in range(n)))
            for m in range(n)]


def _sym_apply(M, vec, n):
    return [sum(M[r, c] * vec[c] for c in range(n)) for r in range(n)]


def oracle_constraints(a, kind):
    """Constraint matrix over the flattened unknowns, oracle route."""
    n = a.dim
    if kind in ("der", "mult"):
        syms = sp.symbols(f"u0:{n * n}")
        M = sp.Matrix(n, n, syms)
    else:
        syms = sp.symbols(f"u0:{2 * n * n}")
        L = sp.Matrix(n, n, syms[: n * n])
        R = sp.Matrix(n, n, syms[n * n:])
    e = [[sp.Integer(1) if r == i else sp.Integer(0) for r in range(n)]
         for i in range(n)]
    exprs = []
    for i in range(n):
        for j in range(n):
            x, y = e[i], e[j]
            xy = _sym_mul(a, x, y)
            if kind == "der":
                lhs = _sym_apply(M, xy, n)
                rhs = [p + q for p, q in zip(_sym_mul(a, _sym_apply(M, x, n), y),
                                             _sym_mul(a, x, _sym_apply(M, y, n)))]
                exprs.extend(p - q for p, q in zip(lhs, rhs))
            elif kind == "mult":
                lhs = _sym_apply(M, xy, n)
                rhs = _sym_mul(a, _sym_apply(M, x, n), y)
                exprs.extend(p - q for p, q in zip(lhs, rhs))
            elif kind == "bim":
                exprs.extend(p - q for p, q in zip(
                    _sym_apply(L, xy, n), _sym_mul(a, _sym_apply(L, x, n), y)))
                exprs.extend(p - q for p, q in zip(
                    _sym_apply(R, xy, n), _sym_mul(a, x, _sym_apply(R, y, n))))
                exprs.extend(p - q for p, q in zip(
                    _sym_mul(a, x, _sym_apply(L, y, n)),
                    _sym_mul(a, _sym_apply(R, x, n), y)))
            else:  # bider: L = [phi,-], R = [-,phi]
                Rx, Ry = _sym_apply(R, x, n), _sym_apply(R, y, n)
                Lx, Ly = _sym_apply(L, x, n), _sym_apply(L, y, n)
                exprs.extend(p - q - r for p, q, r in zip(
                    _sym_apply(R, xy, n), _sym_mul(a, x, Ry), _sym_mul(a, Rx, y)))
                exprs.extend(p - q + r for p, q, r in zip(
                    _sym_apply(L, xy, n), _sym_mul(a, Lx, y), _sym_mul(a, Ly, x)))
                exprs.extend(_sym_mul(a, x, [p + q for p, q in zip(Ly, Ry)]))
    mat, rhs = sp.linear_eq_to_matrix(exprs, list(syms))
    assert rhs == sp.zeros(len(exprs), 1)
    return mat, syms


def oracle_dim(a, kind):
    mat, syms = oracle_constraints(a, kind)
    return len(syms) - mat.rank()


def oracle_accepts(a, kind, flat):
    """Membership of a flattened (L,R) vector in the oracle's nullspace."""
    mat, syms = oracle_constraints(a, kind)
    vec = sp.Matrix([sp.Rational(x) for x in flat])
    return mat * vec == sp.zeros(mat.rows, 1)


def flat_maps(actor, s):
    bm = actor.maps[s]
    out = [x for row in bm.left.rows for x in row]
    if actor.kind not in ("der", "mult", "zero"):
        out += [x for row in bm.right.rows for x in row]
    return out


# frozen oracle outputs (recomputed below; values pinned for drift detection)
EXPECTED_DIMS = [
    ("der", sl2(), 3),
    ("der", heisenberg(), 6),
    ("der", abelian(QQ, 2), 4),
    ("der", abelian(QQ, 4), 16),
    ("bim", m2_rationals(), 4),
    ("bim", dual_numbers(), 2),
    ("bim", zero_algebra(QQ, 1, "associative"), 2),
    ("bider", a5_leibniz(), 3),
    ("bider", zero_algebra(QQ, 1, "leibniz"), 2),
    ("mult", truncated_poly(QQ, 2, "commutative"), 2),
    ("mult", zero_algebra(QQ, 1, "commutative"), 1),
    ("mult", truncated_poly(QQ, 1, "commutative"), 1),
]


def build(kind, a):
    if kind == "der":
        return derivations(a)
    if kind == "bim":
        return bimultipliers(a)
    if kind == "bider":
        return biderivations(a, 1)
    return multipliers(a)


@pytest.mark.parametrize("kind,a,expected", EXPECTED_DIMS,
                         ids=[f"{k}-{a.category}{a.dim}" for k, a, _ in EXPECTED_DIMS])
def test_actor_dimension_matches_oracle(kind, a, expected):
    okind = "bider" if kind == "bider" else kind
    assert oracle_dim(a, okind) == expected
    actor = build(kind, a)
    assert actor.dim == expected
    # every basis element of ours satisfies the oracle's equations
    for s in range(actor.dim):
        assert oracle_accepts(a, okind, flat_maps(actor, s))


def test_sl2_derivations_equal_adjoint_span():
    a = sl2()
    actor = derivations(a)
    ad_rows = []
    for i in range(3):
        ad_rows.append(tuple(a.tensor[i][j][r] for r in range(3) for j in range(3)))
    der_rows = [tuple(flat_maps(actor, s)) for s in range(actor.dim)]
    stacked = Matrix.from_rows(QQ, der_rows + ad_rows)
    assert Matrix.from_rows(QQ, der_rows).rank() == 3
    assert stacked.rank() == 3  # adjoints add nothing: same span


def test_a5_biderivation_shape():
    # solution space is {L=[[0,u],[0,-s]], R=[[2s,t],[0,s]]}; three params
    actor = biderivations(a5_leibniz(), 1)
    assert actor.dim == 3
    for s in range(3):
        L, R = actor.maps[s].left, actor.maps[s].right
        assert L.entry(0, 0) == QQ.zero
        assert L.entry(1, 0) == QQ.zero
        assert R.entry(1, 0) == QQ.zero
        assert L.entry(1, 1) == QQ.neg(R.entry(1, 1))
        assert R.entry(0, 0) == QQ.mul(QQ.from_int(2), R.entry(1, 1))


def test_sl2_as_leibniz_contains_adjoint_pairs():
    a = make_algebra(QQ, sl2().basis, sl2().tensor, "leibniz")
    actor = biderivations(a, 1)
    d = canonical_d(a, actor)  # raises if any pair falls outside the span
    assert d.nrows == 3
    assert Matrix.from_rows(QQ, d.rows).rank() == 3  # center is 0


def test_actor_tensors_satisfy_their_categories():
    cases = [
        (derivations(sl2()), "lie"),
        (derivations(heisenberg()), "lie"),
        (bimultipliers(m2_rationals()), "associative"),
        (bimultipliers(dual_numbers()), "associative"),
        (biderivations(a5_leibniz(), 1), "leibniz"),
        (multipliers(truncated_poly(QQ, 3, "commutative")), "commutative"),
    ]
    for actor, cat in cases:
        assert identity_suite(actor.as_algebra(), cat).passed, (actor.kind, cat)


def test_closure_products_match_stored_tensor():
    # recompute each composite map pair from scratch and re-express it
    def der_combine(s, t):
        p = (s.left @ t.left).sub(t.left @ s.left)
        return BiMap(p, p.neg())

    for actor, combine in [
        (bimultipliers(m2_rationals()),
         lambda s, t: BiMap(s.left @ t.left, t.right @ s.right)),
        (derivations(sl2()), der_combine),
        (biderivations(a5_leibniz(), 1),
         lambda s, t: BiMap((s.left @ t.left).add(t.right @ s.left),
                            (t.right @ s.right).sub(s.right @ t.right))),
    ]:
        for s in range(actor.dim):
            for t in range(actor.dim):
                prod = combine(actor.maps[s], actor.maps[t])
                coords = actor.member_coords(prod)
                assert coords is not None
                assert coords == actor.tensor[s][t]
    # every kind on every field at dims 0, 1 and 3, the zero dim-6 algebras,
    # whose candidates span every pair, so that the certificate has no free
    # column, and the algebras of the reference corpus, against the bracket
    # texts by Matrix products.  Reading the tensor runs the certificate on
    # every kind, der and bim included, whose verdicts never build it
    kinds, spanning = set(), set()
    for a in _closure_cases():
        for actor in [construct("zero", a)] + _candidates(a):
            _assert_closure_matches_oracle(actor)
            kinds.add(actor.kind)
            if a.dim == 6 and actor.dim == actor.span.ncols:
                spanning.add(actor.kind)
    assert kinds == set(KIND_TABLE)
    assert spanning == set(KIND_TABLE) - {"zero"}


def _closure_cases():
    """Algebras of the four categories with candidates over GF(2), GF(3),
    GF(5), GF(2^61 - 1) and Q at dims 0, 1 and 3, the zero ones at dim 6
    over GF(5), then those of test_reference.CASES, each once."""
    for f in (GF(2), GF(3), GF(5), GF(2 ** 61 - 1), QQ):
        for category in ("lie", "leibniz", "associative", "commutative"):
            yield zero_algebra(f, 0, category)
            for n in (1, 3):
                yield sample_algebra(random.Random(n), f, n, category)
    for category in ("lie", "leibniz", "associative", "commutative"):
        yield zero_algebra(GF(5), 6, category)
    from test_reference import CASES
    yield from {id(a): a for a, _ in CASES}.values()


def _candidates(a):
    """Every candidate built on a, by its category."""
    return {"lie": lambda: [derivations(a)],
            "leibniz": lambda: [biderivations(a, 1), biderivations(a, 2)],
            "associative": lambda: [bimultipliers(a)],
            "commutative": lambda: [multipliers(a), bimultipliers(a)],
            "module": lambda: []}[a.category]()


# the brackets of KIND_TABLE written by hand, (left, right), as signed sums
# of products xYzW, component Y of pair x after component W of pair z, and
# the right component's rule where it follows from the left one.  der's word
# reads aLbL + bRaL, which is its text only under its rule R = -L
BRACKET_TEXTS = {"der": ("aLbL - bLaL", "neg"), "bim": ("aLbL", "bRaR"),
                 "bider1": ("aLbL + bRaL", "bRaR - aRbR"),
                 "bider2": ("bRaL - aLbR", "bRaR - aRbR"),
                 "mult": ("aLbL", "same"), "zero": ("", "same")}


def _signed(text):
    """'A - B + C' as ((1, 'A'), (-1, 'B'), (1, 'C'))."""
    return tuple((-1 if sign == "-" else 1, term)
                 for sign, term in re.findall(r"([+-]?)\s*([^\s+-]+)", text))


def _pair_product_oracle(actor, text, s, t):
    """text such as "aLbL - bLaL" at a = pair s, b = pair t, by Matrix products."""
    comps = {"aL": actor.maps[s].left, "aR": actor.maps[s].right,
             "bL": actor.maps[t].left, "bR": actor.maps[t].right}
    out = None
    for sign, term in _signed(text):
        p = comps[term[:2]] @ comps[term[2:]]
        out = (p if sign > 0 else p.neg()) if out is None else \
            (out.add(p) if sign > 0 else out.sub(p))
    return out


def _assert_closure_matches_oracle(actor):
    """Each product of basis pairs, by _pair_product_oracle on the kind's
    BRACKET_TEXTS, lies in the span at the coordinates the stored tensor
    holds, as field scalars."""
    bracket, rule = BRACKET_TEXTS[actor.kind]
    scalar = Fraction if actor.target.field is QQ else int
    for s in range(actor.dim):
        for t in range(actor.dim):
            left = _pair_product_oracle(actor, bracket, s, t)
            right = None if rule in ("neg", "same") else \
                _pair_product_oracle(actor, rule, s, t)
            coords = actor.member_coords(constructions._pair(actor.kind, left, right))
            assert coords is not None and coords == actor.tensor[s][t]
            assert all(type(x) is scalar for x in actor.tensor[s][t])


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_non_closed_span_raises_closure_error(field):
    # span{E12 + E21} is not closed under composition: its square is I
    one, zero = field.one, field.zero
    rows = [(one, zero, zero, zero), (zero, zero, zero, one), (zero, one, field.neg(one), zero)]
    a = zero_algebra(field, 2, "commutative")
    actor = constructions._build_actor("mult", a, Matrix.from_rows(field, rows))
    with pytest.raises(ClosureError, match="pairs 0 and 0 leaves the span"):
        actor.constants


def _big_q_conjugate(a):
    """a after a change of basis with entry 3^40/7 (3^40 alone exceeds 2^63)."""
    big = Fraction(3 ** 40, 7)
    n = a.dim
    p = Matrix.from_rows(QQ, (tuple(Fraction(1) if i == j else
                                    (big if j == i + 1 else Fraction(-2, 3 + j)) if i < j
                                    else Fraction(0) for j in range(n)) for i in range(n)))
    return _conjugate(a, p, _inverse_rref(p))


def _big_entry_algebras():
    """Algebras whose candidates take the Python-int (object array) path:
    over GF(4294967291), and over Q after a change of basis with big entries."""
    f = GF(4294967291)
    rng = random.Random(0)
    for a in (sl2(f), a5_leibniz(f), diagonal_algebra(f, 3),
              diagonal_algebra(f, 2, "commutative")):
        yield _conjugate(a, *_rand_invertible(rng, f, a.dim))
    for a in (sl2(), a5_leibniz(), dual_numbers(), heisenberg()):
        yield _big_q_conjugate(a)


def test_object_array_closure_equals_per_pair_matmul_oracle():
    on_objects = set()
    big = GF(2 ** 61 - 1)
    rng = random.Random(1)
    big_prime = [_conjugate(a, *_rand_invertible(rng, big, a.dim))
                 for a in (sl2(big), a5_leibniz(big), dual_numbers(big),
                           truncated_poly(big, 3, "commutative"))]
    for a in itertools.chain(_big_entry_algebras(), big_prime):
        for actor in _candidates(a):
            _, ints = actor.pairs
            if ints.dtype == object:
                on_objects.add((str(a.field), actor.kind))
            _assert_closure_matches_oracle(actor)
    kinds = {"der", "bim", "bider1", "bider2", "mult"}
    assert {(str(f), k) for f in (GF(4294967291), big) for k in kinds} \
        | {("Q", "der"), ("Q", "bim")} <= on_objects


# each condition's label and its two sides at basis pairs (a, b)
CONDITION_SIDES = {
    1: ("[phi,[a,phi']] = -[phi,[phi',a]]", lambda a, b: a.left @ b.right,
        lambda a, b: (a.left @ b.left).neg()),
    2: ("f*(a*f') = (f*a)*f'", lambda a, b: a.left @ b.right, lambda a, b: b.right @ a.left),
}


def _condition_oracle(actor, which):
    """The first (s, t, col) where the two sides differ, with their columns,
    by Matrix products pair by pair."""
    label, lhs_of, rhs_of = CONDITION_SIDES[which]
    for s in range(actor.dim):
        for t in range(actor.dim):
            lhs = lhs_of(actor.maps[s], actor.maps[t])
            rhs = rhs_of(actor.maps[s], actor.maps[t])
            for col in range(actor.target.dim):
                if lhs.col(col) != rhs.col(col):
                    return label, (s, t, col), lhs.col(col), rhs.col(col)
    return None


def _condition_cases():
    """Leibniz and associative algebras on every rung: fixtures, zero
    algebras and samples, fifteen of which fail their condition."""
    cases = list(_big_entry_algebras())
    # condition 1 fails on these, with an object-array basis
    cases += [sample_algebra(random.Random(0), GF(4294967291), 3, "leibniz"),
              _big_q_conjugate(sample_algebra(random.Random(0), QQ, 3, "leibniz")),
              _big_q_conjugate(sample_algebra(random.Random(0), QQ, 3, "associative"))]
    for f in (QQ, GF(2), GF(5)):
        cases += [zero_algebra(f, 2, "leibniz"), zero_algebra(f, 3, "leibniz"),
                  a5_leibniz(f), zero_algebra(f, 2, "associative"),
                  zero_algebra(f, 3, "associative"), truncated_poly(f, 3), dual_numbers(f)]
    cases.append(m2_rationals())
    return [a for a in cases if a.category in ("leibniz", "associative")]


def test_condition_witnesses_equal_per_pair_matmul_oracle():
    cases = _condition_cases()
    failures = 0
    for a in cases:
        if a.category == "leibniz":
            actor, rep = biderivations(a, 1), condition1_check(a)
            key, which = "bider_dim", 1
        else:
            actor, rep = bimultipliers(a), condition2_check(a)
            key, which = "bim_dim", 2
        want = _condition_oracle(actor, which)
        assert rep.details == [{key: actor.dim}]
        if want is None:
            assert rep.passed and rep.witness is None
        else:
            failures += 1
            assert not rep.passed
            assert (rep.label, rep.witness, rep.lhs, rep.rhs) == want
            assert all(type(x) is type(a.field.zero) for x in rep.lhs + rep.rhs)
    assert failures == 15


# Block boundaries.  The closure takes the products of a block of basis
# pairs s at once, as many s as algebra.SWEEP_CELLS holds.  A budget of one
# cell makes every block a single s; a budget of two s makes blocks of two
# with a remainder of one when m is odd.  The condition checks step through
# s as the suite's sweep does, on the same budget.


def _first_escape(field, rows):
    """The first (s, t) in s-major order at which the composition of the
    nullspace's basis pairs leaves their span, by the per-pair oracle."""
    span = Matrix.from_rows(field, rows).nullspace()
    maps = [BiMap(m, m) for m in (Matrix.from_rows(field, (r[:2], r[2:])) for r in span.rows)]
    actor = types.SimpleNamespace(maps=maps)
    for s, t in itertools.product(range(len(maps)), repeat=2):
        prod = _pair_product_oracle(actor, "aLbL", s, t)
        if not span.contains(tuple(x for row in prod.rows for x in row)):
            return s, t
    return None


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("rule", ["a00 = a11", "a11 = 0"])
def test_closure_error_names_the_first_escaping_pair_at_every_block_size(
        monkeypatch, field, rule):
    # span{I, E12, E21} first escapes at E12 E21 = E11, pairs 1 and 2, and
    # span{E11, E12, E21} at E21 E12 = E22, pairs 2 and 1, inside the
    # remainder block when blocks hold two s
    one, zero = field.one, field.zero
    rows = {"a00 = a11": [(one, zero, zero, field.neg(one))],
            "a11 = 0": [(zero, zero, zero, one)]}[rule]
    s, t = _first_escape(field, rows)
    assert s > 0 and t > 0
    a = zero_algebra(field, 2, "commutative")
    # m = 3 pairs of 4 cells, 12 cells per s: blocks of one, two and three s
    for cells in (1, 24, 36, algebra.SWEEP_CELLS):
        monkeypatch.setattr(algebra, "SWEEP_CELLS", cells)
        actor = constructions._build_actor("mult", a, Matrix.from_rows(field, rows))
        with pytest.raises(ClosureError, match=f"pairs {s} and {t} leaves the span"):
            actor.constants


def test_constants_and_condition_reports_do_not_depend_on_the_block_size(monkeypatch):
    cases = _condition_cases()
    for f in (QQ, GF(3), GF(5)):
        for category in ("leibniz", "associative"):
            cases += [sample_algebra(random.Random(seed), f, 3, category) for seed in range(4)]
    default = algebra.SWEEP_CELLS
    for a in cases:
        build, check = (biderivations, condition1_check) if a.category == "leibniz" \
            else (bimultipliers, condition2_check)
        monkeypatch.setattr(algebra, "SWEEP_CELLS", default)
        actor = build(a)
        want = check(a, actor)
        # the closure: one s per block, then two per block with a remainder
        # when m is odd
        width = actor.pairs[1][0].size
        for cells in (1, 2 * actor.dim * width):
            monkeypatch.setattr(algebra, "SWEEP_CELLS", cells)
            got = build(a)
            assert got.tensor == actor.tensor
        # the condition, on the sweep of B x B x A: one cell a step, two
        # leading indices s a step (m n^2 cells each), and the default
        n = a.dim
        for cells in (1, 2 * actor.dim * n * n, default):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(algebra, "SWEEP_CELLS", cells)
                rep = check(a, actor)
            assert rep == want and rep.to_json(a.field.to_json) == want.to_json(a.field.to_json)


# ---------------------------------------------------------------------------
# constraint assembly against a per-entry oracle
#
# The oracle evaluates each ternary row of the source category's identities
# (algebra.IDENTITIES) by Algebra.multiply, with the acting element b in one
# slot and (e_i, e_j) at the other two labels in increasing order: b*v is
# L(v) and v*b is R(v).  The entry of a row at one unknown M[r][col] is the
# value at coordinate m when M is the unit matrix sending e_col to e_r and
# the other component is zero, or, for a kind whose right component follows
# the left one, R = L or R = -L.  The integer assembly must give lam times
# these rows, lam the lcm of the tensor's denominators, mod p over GF(p).

FOLLOW_SIGN = {"neg": -1, "same": 1}


def _oracle_rows(a, kind, slots=None):
    f, n = a.field, a.dim
    spec = KIND_TABLE[kind]
    follow = FOLLOW_SIGN.get(spec.right)
    if slots is None:
        slots = (0,) if follow else (0, 1, 2)
    e = [basis_vector(f, n, k) for k in range(n)]
    zero = vec_zero(f, n)

    def unit_pair(comp, r, col):
        """(L, R) with the unit matrix E[r][col] on comp."""
        def unit(v):
            return tuple(f.mul(v[col], x) for x in e[r])

        if follow:
            return unit, lambda v: tuple(f.mul(f.from_int(follow), x) for x in unit(v))
        return (unit, lambda v: zero) if comp == "L" else (lambda v: zero, unit)

    def mul(u, v, left, right):  # None stands for b
        return left(v) if u is None else right(u) if v is None else a.multiply(u, v)

    def side(terms, at, left, right):
        out = zero
        for sign, shape, perm in terms:
            u, v, w = (at[x] for x in perm)
            val = (mul(mul(u, v, left, right), w, left, right) if shape == "L"
                   else mul(u, mul(v, w, left, right), left, right))
            out = vec_add(f, out, val) if sign > 0 else vec_sub(f, out, val)
        return out

    pairs = [unit_pair(*u) for u in itertools.product("L" if follow else "LR",
                                                       range(n), range(n))]
    eqs = [(lhs, rhs, slot) for tag in SUITES[spec.source] for _, lhs, rhs in IDENTITIES[tag]
           if len(lhs[0][2]) == 3 for slot in slots]
    rows = []
    for i, j in itertools.product(range(n), repeat=2):
        per_eq = []  # per equation, its vector at each unknown
        for lhs, rhs, slot in eqs:
            at = {slot: None, **dict(zip(sorted({0, 1, 2} - {slot}), (e[i], e[j])))}
            per_eq.append([vec_sub(f, side(lhs, at, *pair), side(rhs, at, *pair))
                           for pair in pairs])
        rows += [[v[m] for v in cols] for m in range(n) for cols in per_eq]
    return rows


# 2^25 - 39 puts the integer tensor on the int64 rung
ASSEMBLY_FIELDS = [GF(2), GF(3), GF(5), GF(2 ** 25 - 39), GF(4294967291), QQ]
BIG_Q = Fraction(3 ** 40, 7)  # lam * tensor leaves int64: the object path


@st.composite
def assembly_algebras(draw):
    f = draw(st.sampled_from(ASSEMBLY_FIELDS))
    n = draw(st.integers(0, 4))
    if f.p is None:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    else:
        entry = st.integers(0, f.p - 1)
    entry = st.just(f.zero) if draw(st.booleans()) else st.one_of(st.just(f.zero), entry)
    values = draw(st.lists(entry, min_size=n ** 3, max_size=n ** 3))
    if f.p is None and n and draw(st.booleans()):
        values[draw(st.integers(0, n ** 3 - 1))] = BIG_Q
    tensor = [[values[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
              for i in range(n)]
    return make_algebra(f, [f"e{k}" for k in range(n)], tensor, "raw")


def _assert_assembly_is_oracle(a):
    f = a.field
    lam = math.lcm(*(x.denominator for plane in a.tensor for v in plane for x in v))
    for kind in ("der", "bim", "bider1", "mult"):
        got = constructions._assemble(a, kind).rows
        assert all(type(x) is int for row in got for x in row)
        want = [[lam * x if f.p is None else x for x in row] for row in _oracle_rows(a, kind)]
        assert got == tuple(map(tuple, want)), kind


@settings(max_examples=80)
@given(assembly_algebras())
def test_integer_assembly_is_lam_times_per_entry_oracle(a):
    _assert_assembly_is_oracle(a)


def _follower_algebras():
    """Lie and commutative algebras: fixtures, zero algebras and samples over
    Q, GF(2), GF(3) and GF(5) at dims 1-3, seeds 0-5."""
    yield from (sl2(), heisenberg(), abelian(QQ, 3), truncated_poly(QQ, 3, "commutative"),
                diagonal_algebra(QQ, 3, "commutative"), sl2(GF(3)))
    for f in (QQ, GF(2), GF(3), GF(5)):
        for category in ("lie", "commutative"):
            for n in (1, 2, 3):
                yield zero_algebra(f, n, category)
                for seed in range(6):
                    yield sample_algebra(random.Random(seed), f, n, category)


def test_slot_zero_rule_keeps_the_all_slot_solution_space():
    # a kind whose right component follows the left one takes b in slot 0
    # only; b in every slot must cut out the same candidate
    count = 0
    for a in _follower_algebras():
        kind = "der" if a.category == "lie" else "mult"
        everywhere = Matrix.from_rows(a.field, _oracle_rows(a, kind, slots=(0, 1, 2)))
        assert everywhere.nullspace().rows == build(kind, a).span.rows, a
        count += 1
    assert count == 6 + 4 * 2 * 3 * 7


def test_assembly_oracle_cases_reach_the_object_path():
    # one fixed case on each rung of the integer tensor, the object one over
    # both fields, each assembled as the per-entry oracle gives it
    for f, x, dtype in ((GF(5), 4, np.float64), (GF(2 ** 25 - 39), 2 ** 25 - 40, np.int64),
                        (GF(4294967291), 4294967290, object), (QQ, BIG_Q, object)):
        a = make_algebra(f, ["e0", "e1", "e2"], [[[x, f.zero, f.zero]] * 3] * 3, "raw")
        assert a.integer_tensor[1].dtype == dtype
        _assert_assembly_is_oracle(a)


def _assert_scalars(f, values):
    """Over GF(p) every scalar is a Python int in [0, p), over Q a Fraction:
    a float or numpy scalar would change the JSON bytes."""
    for x in values:
        assert (type(x) is Fraction) if f.p is None else (type(x) is int and 0 <= x < f.p), x


def test_scalars_leaving_numpy_are_python_ints_or_fractions():
    rungs = set()
    for f in (GF(2), GF(5), GF(65521), GF(4294967291), QQ):
        rng = random.Random(3)
        algebras = [zero_algebra(f, 2, cat) for cat in ("leibniz", "associative", "lie")]
        algebras += [_conjugate(a, *_rand_invertible(rng, f, a.dim))
                     for a in (sl2(f), a5_leibniz(f), dual_numbers(f), heisenberg(f))]
        for a in algebras:
            v = actor_pipeline(a)
            actor = v.actor
            rungs.add(a.integer_tensor[1].dtype)
            rungs.add(actor.pairs[1].dtype)
            _assert_scalars(f, [x for plane in actor.tensor for row in plane for x in row])
            # constraint rows are ints over both fields: lam times their values over Q
            rows = [x for row in constructions._assemble(a, actor.kind).rows for x in row]
            assert all(type(x) is int and (f.p is None or 0 <= x < f.p) for x in rows)
            witnesses = [identity_suite(v.semidirect_product, a.category), v.condition_status]
            for rep in filter(None, witnesses):
                if not rep.passed:
                    _assert_scalars(f, rep.lhs + rep.rhs)
    assert rungs == {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)}


# ---------------------------------------------------------------------------
# the semidirect product's integer tensor, placed from the candidate's blocks
# against the conversion of the product's field scalars

# the kinds an algebra of each category is built as, besides the zero actor
BLOCK_KINDS = {"lie": ("der",), "leibniz": ("bider1", "bider2"), "associative": ("bim",),
               "commutative": ("mult", "bim"), "module": ()}
# 2^25 - 39 puts the blocks on the int64 rung, 2^61 - 1 is past it and
# 18446744073709551629 past uint64: residues there are exact only if they
# are never taken in float or int64
BLOCK_FIELDS = (GF(2), GF(3), GF(5), GF(2 ** 25 - 39), GF(2 ** 31 - 1), GF(2 ** 61 - 1),
                GF(18446744073709551629), QQ)
BLOCK_SEEDS = {"lie": sl2, "leibniz": a5_leibniz, "associative": dual_numbers,
               "commutative": lambda f: truncated_poly(f, 3, "commutative")}


def _scaled(a, t):
    """a with every structure constant times the nonzero scalar t: each
    identity row is homogeneous, so a stays in its category."""
    f = a.field
    return make_algebra(f, a.basis, [[[f.mul(t, x) for x in v] for v in plane]
                                     for plane in a.tensor], a.category)


def _block_actors(a):
    return [construct(kind, a) for kind in BLOCK_KINDS[a.category] + ("zero",)]


def dense_tensor(t):
    """The four blocks of an algebra.Blocks placed into one (N, N, N) array
    of their common dtype, zero outside them: B * B lands in B, every other
    product in A."""
    m, n = t.dims
    b, a = slice(m), slice(m, m + n)
    assert len({x.dtype for x in t[:4]}) == 1
    out = np.zeros((m + n,) * 3, t.bb.dtype)
    for where, block in zip(((b, b, b), (b, a, a), (a, b, a), (a, a, a)), t[:4]):
        out[where] = block
    return out


def _assert_block_tensor(actor):
    """semidirect_tensor, placed dense, equals the converted pair (lam,
    tensor), lam, values and dtype; an object array holds Python ints.
    Returns the dtype."""
    want_lam, want = semidirect(actor.action_pair()).integer_tensor
    got_lam, blocks = semidirect_tensor(actor)
    got = dense_tensor(blocks)
    assert set(blocks.closed) <= set(SUITES[KIND_TABLE[actor.kind].source])
    assert got_lam == want_lam, actor.kind
    assert got.dtype == want.dtype and got.shape == want.shape, actor.kind
    assert np.array_equal(got, want), actor.kind
    if got.dtype == object:
        assert all(type(x) is int for x in got.ravel())
    return got.dtype


def _report_bytes(f, rep):
    return json.dumps(rep.to_json(f.to_json), sort_keys=True)


def _assert_block_report(a, actor):
    """The suite decided block by block gives the Report, every byte of it,
    that the dense suite gives on the eagerly built product; returns it."""
    prod = semidirect(actor.action_pair())
    want = identity_suite(prod, a.category)
    got = identity_suite(prod, a.category, c=semidirect_tensor(actor))
    assert got == want and _report_bytes(a.field, got) == _report_bytes(a.field, want)
    return want


@st.composite
def block_algebras(draw, fields=BLOCK_FIELDS, categories=tuple(BLOCK_KINDS)):
    f = draw(st.sampled_from(fields))
    category = draw(st.sampled_from(categories))
    n = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 5)))
    if n == 0 or category == "module" or draw(st.integers(0, 3)) == 0:
        a = zero_algebra(f, n, category)
    elif f.p and f.p > 5:  # rejection sampling finds nothing over a big field
        a = BLOCK_SEEDS[category](f)
        a = _conjugate(a, *_rand_invertible(rng, f, a.dim))
    else:
        a = sample_algebra(rng, f, n, category)
    if f.p is None:  # 3^17 takes Q to the int64 rung, BIG_Q and its inverse to object
        t = draw(st.sampled_from((Fraction(1), Fraction(-2, 3), Fraction(3 ** 17), BIG_Q,
                                  1 / BIG_Q)))
    else:
        t = f.from_int(draw(st.integers(1, f.p - 1)))
    return _scaled(a, t)


@settings(max_examples=200)
@given(block_algebras())
def test_semidirect_tensor_equals_the_converted_tensor(a):
    for actor in _block_actors(a):
        _assert_block_tensor(actor)


@settings(max_examples=150)
@given(block_algebras())
def test_block_suite_gives_the_report_of_the_dense_suite(a):
    for actor in _block_actors(a):
        _assert_block_report(a, actor)


@settings(max_examples=100)
@given(block_algebras(), st.sampled_from((1, 5, 40)))
def test_block_suite_report_holds_when_the_sweep_steps_through_second_indices(a, cells):
    # below one leading index of the all-B block per step, the sweep steps
    # through second indices too and stops where a mixed block fails; the
    # Report must be the one of the default budget's whole leading indices
    for actor in _block_actors(a):
        prod = semidirect(actor.action_pair())
        want = identity_suite(prod, a.category)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(algebra, "SWEEP_CELLS", cells)
            got = identity_suite(prod, a.category, c=semidirect_tensor(actor))
            dense = identity_suite(prod, a.category)
        assert got == want == dense
        assert _report_bytes(a.field, got) == _report_bytes(a.field, want)


def test_semidirect_tensor_covers_dims_0_and_1_and_every_rung():
    rungs = set()
    for f in BLOCK_FIELDS:
        algebras = [zero_algebra(f, n, cat) for n in (0, 1) for cat in BLOCK_KINDS]
        algebras += [sample_algebra(random.Random(seed), f, 1, cat)
                     for cat in BLOCK_KINDS for seed in range(3)]
        algebras += [sl2(f), a5_leibniz(f), dual_numbers(f), truncated_poly(f, 3, "commutative")]
        if f.p is None:
            algebras += [m2_rationals()] + [_scaled(a, t) for a in (sl2(), dual_numbers())
                                            for t in (Fraction(3 ** 17), BIG_Q, 1 / BIG_Q)]
        for a in algebras:
            rungs |= {(str(f), _assert_block_tensor(actor).name) for actor in _block_actors(a)}
    assert {("GF(2147483647)", "object"), ("GF(2305843009213693951)", "object"),
            ("GF(18446744073709551629)", "object"), ("GF(5)", "float64"),
            ("Q", "float64"), ("Q", "int64"), ("Q", "object")} <= rungs


def test_identity_suite_gives_the_same_report_on_the_block_tensor():
    algebras = [sl2(), heisenberg(), a5_leibniz(), m2_rationals(), dual_numbers(),
                truncated_poly(QQ, 3, "commutative"), sl2(GF(3)), a5_leibniz(GF(5))]
    for f in (GF(2), GF(5), QQ):
        algebras += [zero_algebra(f, n, cat) for n in (0, 1, 2) for cat in BLOCK_KINDS]
        algebras += [sample_algebra(random.Random(seed), f, n, cat)
                     for cat in ("lie", "leibniz", "associative", "commutative")
                     for n in (1, 2, 3) for seed in range(4)]
    # the int64 and object rungs: large primes, and Q scaled past 2^53 and 2^63
    for f in (GF(2 ** 25 - 39), GF(2 ** 31 - 1), GF(18446744073709551629)):
        algebras += [zero_algebra(f, n, cat) for n in (0, 1) for cat in BLOCK_KINDS]
        algebras += [_scaled(seed(f), f.from_int(-1)) for seed in BLOCK_SEEDS.values()]
    algebras += [_scaled(a, t) for a in (sl2(), a5_leibniz(), dual_numbers())
                 for t in (Fraction(3 ** 17), BIG_Q)]
    failed, rungs = 0, set()
    for a in algebras:
        for actor in _block_actors(a):
            want = _assert_block_report(a, actor)
            rungs.add(semidirect_tensor(actor)[1].bb.dtype.name)
            if not want.passed:  # the sides at the witness, by Algebra.multiply
                prod = semidirect(actor.action_pair())
                _, lhs, rhs = next(row for rows in IDENTITIES.values() for row in rows
                                   if row[0] == want.label)
                e = [basis_vector(a.field, prod.dim, k) for k in range(prod.dim)]
                assert (want.lhs, want.rhs) == (exact_side(prod, e, lhs, want.witness),
                                                exact_side(prod, e, rhs, want.witness))
            failed += not want.passed
    assert failed >= 20  # witnesses and their sides are compared too
    assert rungs == {"float64", "int64", "object"}


def _assert_closed_blocks_hold(actor):
    """Every block of the semidirect product that semidirect_tensor marks
    closed, evaluated whole by algebra._np_failing with no block skipped,
    sets no flag; returns the number of blocks evaluated."""
    f = actor.target.field
    t = semidirect_tensor(actor)[1]
    dims = t.dims
    checked = 0
    for tag, closed in t.closed.items():
        for _, lhs, rhs in IDENTITIES[tag]:
            terms = lhs + [(-s, shape, perm) for s, shape, perm in rhs]
            for parts in closed:
                if all(dims[x] for x in parts):
                    flags = algebra._np_failing(t, f.p, terms, parts, slice(None))
                    assert not flags.any(), (actor.kind, tag, parts, actor.target)
                    checked += 1
    return checked


# the fields the closed blocks are drawn over: characteristic 2, 3 and 5, a
# prime past int64 products, and Q
CLOSED_FIELDS = (GF(2), GF(3), GF(5), GF(2 ** 61 - 1), QQ)


def test_closed_tags_hold_on_every_candidate():
    # every block a kind closes, for every kind, both bider variants and bim
    # on a commutative A, on the reference corpus and the algebras below
    from test_reference import CASES
    algebras = [sl2(), heisenberg(), m2_rationals(), dual_numbers(),
                truncated_poly(QQ, 3, "commutative"), diagonal_algebra(QQ, 2, "commutative")]
    for f in (GF(2), GF(3), GF(5), QQ, GF(2 ** 61 - 1)):
        for cat in ("lie", "leibniz", "associative", "commutative"):
            algebras += [zero_algebra(f, n, cat) for n in (1, 2, 3)]
            if f.p is None or f.p <= 5:
                algebras += [sample_algebra(random.Random(seed), f, n, cat)
                             for n in (2, 3) for seed in range(3)]
            else:  # rejection sampling finds nothing over a big field
                rng = random.Random(1)
                a = BLOCK_SEEDS[cat](f)
                algebras.append(_conjugate(a, *_rand_invertible(rng, f, a.dim)))
    checked = 0
    for a in algebras + list({id(a): a for a, _ in CASES}.values()):
        for actor in _block_actors(a):
            checked += _assert_closed_blocks_hold(actor)
    assert checked > 2000


@settings(max_examples=150)
@given(block_algebras(CLOSED_FIELDS))
def test_closed_blocks_hold_on_drawn_candidates(a):
    for actor in _block_actors(a):
        _assert_closed_blocks_hold(actor)


def _dense_flags(prod, tag):
    """The flags of the tag's one row at every witness of the product, by
    the dense route: the row summed on its integer_tensor as one block."""
    (_, lhs, rhs), = IDENTITIES[tag]
    t = algebra.Blocks(prod.integer_tensor[1])
    return algebra._np_failing(t, prod.field.p, algebra._difference(lhs, rhs),
                               (0,) * len(lhs[0][2]), slice(None))


def test_the_dominated_mult_blocks_fail_only_where_bab_fails_first():
    # by the dense route, associativity's ABB fails at (a, f, f') exactly
    # where its BAB fails at (f, a, f'), and commutativity's BB at (f, f')
    # exactly where BAB fails at some (f, a, f'): a witness led by a B
    # index, so earlier in the sweep, and in the suite's first tag
    from test_census import _algebras
    from test_reference import CASES
    algebras = [a for p, n in itertools.product((2, 3), (1, 2))
                for a in _algebras(p, n, "commutative")]
    algebras += [a for a, _ in CASES if a.category == "commutative" and a.dim]
    algebras += [sample_algebra(random.Random(seed), f, n, "commutative")
                 for f in (GF(2), GF(5), QQ) for n in (2, 3, 4) for seed in range(4)]
    failed = 0
    for a in algebras:
        actor = multipliers(a)
        m = actor.dim
        prod = semidirect(actor.action_pair())
        assoc, comm = _dense_flags(prod, "associativity"), _dense_flags(prod, "commutativity")
        bab = assoc[:m, m:, :m]
        assert np.array_equal(assoc[m:, :m, :m], bab.transpose(1, 0, 2)), a
        assert np.array_equal(comm[:m, :m], bab.any(axis=1)), a
        got = identity_suite(prod, "commutative", c=actor.semidirect_blocks)
        assert got == identity_suite(prod, "commutative")
        assert got.passed or got.witness[0] < m <= got.witness[1]
        failed += not got.passed
    assert len(algebras) > 150 and failed >= 10


def _np_failing_calls(run):
    """The parts of every block algebra._np_failing evaluates while run()
    runs, and run()'s result."""
    calls = []
    real = algebra._np_failing

    def spy(t, p, terms, parts, *cuts):
        calls.append(parts)
        return real(t, p, terms, parts, *cuts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_np_failing", spy)
        return calls, run()


@settings(max_examples=100)
@given(block_algebras(CLOSED_FIELDS, ("lie",)))
def test_a_lie_verdict_evaluates_no_block(a):
    # every block of the derivations' semidirect product is closed
    actor = derivations(a)
    calls, rep = _np_failing_calls(
        lambda: identity_suite(semidirect(actor.action_pair()), "lie", c=semidirect_tensor(actor)))
    assert calls == [] and rep.passed
    assert actor_pipeline(a).exists


@settings(max_examples=100)
@given(block_algebras(CLOSED_FIELDS, ("associative", "commutative")))
def test_a_bimultiplier_suite_evaluates_only_bab(a):
    # associativity's BAB, (f*a)*f' = f*(a*f'), is the one block no proof covers
    actor = bimultipliers(a)
    prod = semidirect(actor.action_pair())
    calls, rep = _np_failing_calls(
        lambda: identity_suite(prod, "associative", c=semidirect_tensor(actor)))
    assert calls == ([(0, 1, 0)] if actor.dim and a.dim else [])
    assert rep == identity_suite(prod, "associative")


def _np_failing_rows(run):
    """The leading part and leading indices, as a range within that part,
    of every call algebra._np_failing makes while run() runs, and run()'s
    result."""
    calls = []
    real = algebra._np_failing

    def spy(t, p, terms, parts, rows, *cols):
        calls.append((parts[0], range(*rows.indices(t.dims[parts[0]]))))
        return real(t, p, terms, parts, rows, *cols)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_np_failing", spy)
        return calls, run()


@pytest.mark.parametrize("cells", [1, algebra.SWEEP_CELLS])
def test_a_failing_row_evaluates_no_leading_index_past_its_witness(monkeypatch, cells):
    # the open blocks step through the leading indices together, so every
    # step starts at or before the witness's leading index within its part,
    # and none leads in a later part; at one cell a step each step is one
    # leading index, so none lies past the witness's
    monkeypatch.setattr(algebra, "SWEEP_CELLS", cells)
    runs = []
    for category, build in (("leibniz", biderivations), ("associative", bimultipliers)):
        a = zero_algebra(GF(5), 6, category)
        actor = build(a)
        prod = semidirect(actor.action_pair())
        runs.append((actor.dim, lambda c=category, p=prod, x=actor:
                     identity_suite(p, c, c=semidirect_tensor(x)).witness))
    # condition 1's witness (s, t, col) leads with s, in the candidate's part
    a = zero_algebra(GF(5), 3, "leibniz")
    actor = biderivations(a)
    runs.append((None, lambda: condition1_check(a, actor).witness))
    for m, run in runs:
        calls, witness = _np_failing_rows(run)
        assert witness is not None and calls
        lead = 0 if m is None else int(witness[0] >= m)
        index = witness[0] - (m or 0) * lead
        for part, rows in calls:
            assert part < lead or (part == lead and rows.start <= index), (m, part, rows, witness)
            assert cells > 1 or part < lead or rows.stop - 1 <= index, (m, part, rows, witness)


def test_kind_category_guards():
    with pytest.raises(InputError):
        derivations(m2_rationals())  # not anticommutative
    with pytest.raises(InputError):
        bimultipliers(sl2())  # not associative
    with pytest.raises(InputError):
        multipliers(m2_rationals())  # not commutative
    with pytest.raises(InputError):
        biderivations(a5_leibniz(), 3)


def test_bider_variants_agree_on_a5_and_zero():
    assert bider_variants_agree(a5_leibniz()).passed
    # 1-dim zero bracket: composition brackets differ (variant 2's L part is
    # -l r' + r' l = 0 for scalars, variant 1's is l l' + r' l) and indeed
    # condition 1 fails here, so no agreement is promised
    rep = bider_variants_agree(zero_algebra(QQ, 1, "leibniz"))
    assert not rep.passed
    assert rep.details[0]["condition1_passed"] is False


def test_canonical_d_injective_for_m2():
    a = m2_rationals()
    actor = bimultipliers(a)
    d = canonical_d(a, actor)
    assert Matrix.from_rows(QQ, d.rows).rank() == 4


def test_canonical_d_zero_map_for_zero_algebra():
    a = zero_algebra(QQ, 2, "module")
    actor = zero_actor(a)
    d = canonical_d(a, actor)
    assert d.nrows == 2 and all(len(r) == 0 for r in d.rows)
    # the empty span keeps its width, and holds the zero pair alone
    assert (actor.span.nrows, actor.span.ncols, actor.span.pivots) == (0, a.dim ** 2, ())
    zero = Matrix.zeros(QQ, 2, 2)
    nonzero = Matrix.from_rows(QQ, ((QQ.one, QQ.zero), (QQ.zero, QQ.zero)))
    assert actor.member_coords(BiMap(zero, zero)) == ()
    assert actor.member_coords(BiMap(nonzero, nonzero)) is None


def test_canonical_d_fails_loudly_outside_span():
    a = heisenberg()
    with pytest.raises(ConstructionError):
        canonical_d(a, zero_actor(a))


@pytest.mark.parametrize("make,build", [
    (lambda f: truncated_poly(f, 3, "commutative"), multipliers),
    (lambda f: zero_algebra(f, 2, "lie"), derivations),
])
def test_target_check_refuses_a_candidate_over_another_field(make, build):
    a, actor = make(GF(7)), build(make(GF(5)))
    assert a.tensor == actor.target.tensor  # only the field differs
    with pytest.raises(InputError, match="does not match the actor's target"):
        canonical_d(a, actor)
    with pytest.raises(InputError, match="does not match the actor's target"):
        factor_through_actor(actor, conjugation_action(a))
    # existence keeps exporting the one routine
    assert existence.factor_through_actor is factor_through_actor


def test_crossed_module_of_derivation_action():
    a = sl2()
    actor = derivations(a)
    d = canonical_d(a, actor)
    assert crossed_module_check(d, actor.action_pair()).passed


def test_crossed_module_fails_for_zero_map_with_products():
    a = sl2()
    actor = derivations(a)
    zero_d = Matrix.zeros(QQ, 3, actor.dim)
    rep = crossed_module_check(zero_d, actor.action_pair())
    assert not rep.passed and rep.witness is not None and rep.lhs is not None
    assert rep.label == "d(a)*a' = a*a'"
    with pytest.raises(InputError, match="d must be a dim"):
        crossed_module_check(Matrix.zeros(QQ, 2, actor.dim), actor.action_pair())
    # each of the other three conditions fails on its own input
    # sl2 acting on itself from the left only, d the identity: the right
    # products a'*d(a) vanish where a'*a does not
    a = sl2()
    zero_right = tuple(tuple(vec_zero(QQ, 3) for _ in range(3)) for _ in range(3))
    rep = crossed_module_check(Matrix.from_rows(QQ, [basis_vector(QQ, 3, i) for i in range(3)]),
                               make_action(a, a, a.tensor, zero_right))
    assert (rep.passed, rep.label, rep.witness) == (False, "a'*d(a) = a'*a", (1, 0))
    # M2 acting by zero on a one-dimensional A: d(a) = E12 has E11*E12 = E12
    # on the left, and d(a) = E21 has E21*E11 = E21 on the right
    A, m2 = zero_algebra(QQ, 1, "associative"), m2_rationals()
    e = [basis_vector(QQ, 4, i) for i in range(4)]
    act = make_action(m2, A, [[vec_zero(QQ, 1)]] * 4, [[vec_zero(QQ, 1)] * 4])
    rep = crossed_module_check(Matrix.from_rows(QQ, [e[1]]), act)
    assert (rep.passed, rep.label, rep.witness, rep.rhs) == (
        False, "d(b*a) = b*d(a)", (0, 0), e[1])
    rep = crossed_module_check(Matrix.from_rows(QQ, [e[2]]), act)
    assert (rep.passed, rep.label, rep.witness, rep.rhs) == (
        False, "d(a*b) = d(a)*b", (0, 0), e[2])
    assert [d["condition"] for d in rep.details] == ["i", "ii", "iii"]


def test_image_of_d_is_ideal_in_actor():
    for a, actor in [
        (sl2(), derivations(sl2())),
        (m2_rationals(), bimultipliers(m2_rationals())),
        (a5_leibniz(), biderivations(a5_leibniz(), 1)),
    ]:
        d = canonical_d(a, actor)
        img = Matrix.from_rows(QQ, d.rows).rref()
        assert is_ideal(actor.as_algebra(), img).passed


def test_condition_checks_on_fixtures():
    assert condition2_check(m2_rationals()).passed
    assert condition2_check(dual_numbers()).passed
    assert condition2_check(zero_algebra(QQ, 1, "associative")).passed
    assert not condition2_check(zero_algebra(QQ, 2, "associative")).passed
    assert condition1_check(a5_leibniz()).passed
    sl2_leib = make_algebra(QQ, sl2().basis, sl2().tensor, "leibniz")
    assert condition1_check(sl2_leib).passed
    assert not condition1_check(zero_algebra(QQ, 2, "leibniz")).passed


def test_sufficient_conditions_fixtures():
    assert sufficient_conditions(sl2()) == {"ann_zero": True, "perfect": True}
    assert sufficient_conditions(a5_leibniz()) == {"ann_zero": False, "perfect": False}
    assert sufficient_conditions(zero_algebra(QQ, 2, "raw")) == \
        {"ann_zero": False, "perfect": False}


def test_actor_json_round_trip_and_tamper_detection():
    actor = bimultipliers(dual_numbers())
    obj = actor.to_json()
    again = actor_from_json(obj)
    assert again.dim == actor.dim and again.tensor == actor.tensor
    assert all(again.maps[s].left.rows == actor.maps[s].left.rows
               for s in range(actor.dim))
    bad = actor.to_json()
    bad["action"]["left"][0][0][0] = 1 + bad["action"]["left"][0][0][0]
    with pytest.raises(InputError):
        actor_from_json(bad)
