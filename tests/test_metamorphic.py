"""Metamorphic oracles for whole verdicts: two facts of the mathematics
that need no expected value and share no code path with the verdict.

  * Change of basis.  For an invertible P, A and its conjugate by P are
    isomorphic, so their verdicts agree on everything but witnesses and
    labels, which depend on the basis.
  * Opposite algebra.  For an associative A, A^op has x o y = yx.  A
    bimultiplier (L, R) of A is one of A^op as (R, L), and the bracket
    (L, R)(L', R') = (LL', R'R) goes to the opposite order, so
    Bim(A^op) = Bim(A)^op: existence and every dimension agree.

Each pair of inputs lands on different rungs of the elimination and the
suites (small and big entries, GF(3), GF(5), GF(2^61 - 1) and Q), so a wrong rung, a
reduction mod p left out or an L/R slip on a non-commutative algebra would
change a dimension or the verdict.  The inputs are seed algebras and
two-step nilpotent draws, never the rejection sampler.
"""

import random

import pytest

from artifact import linalg
from artifact.algebra import make_algebra
from artifact.corpus import (_conjugate, _draw_tensor, _names, _rand_invertible, _scalars,
                             a5_leibniz, abelian, diagonal_algebra, dual_numbers, heisenberg,
                             m2_rationals, sample_algebra, sl2, strict_upper3, truncated_poly,
                             zero_algebra)
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ

from test_constructions import _big_q_conjugate

FIELDS = (GF(3), GF(5), QQ)
# a change of basis over a large prime puts residues near p, on the object rung
BASIS_FIELDS = FIELDS + (GF(2 ** 61 - 1),)
# the symmetry of a two-step draw per category, as the sampler draws it
TWO_STEP = {"leibniz": None, "associative": None, "commutative": "sym", "lie": "antisym"}


def _seeds(f):
    seeds = [sl2(f), heisenberg(f), a5_leibniz(f), abelian(f, 2), dual_numbers(f),
             truncated_poly(f, 3), diagonal_algebra(f, 2, "commutative"), strict_upper3(f),
             *(zero_algebra(f, 2, c) for c in ("leibniz", "associative", "commutative"))]
    return seeds + [m2_rationals()] if f is QQ else seeds


def _two_step(rng, f, n, category, v=None):
    """A two-step nilpotent algebra: the products of the first v basis
    vectors (v drawn when not given) land in the span of the rest, and
    every other product is 0."""
    v = rng.randrange(1, n) if v is None else v
    tensor = _scalars(f, _draw_tensor(rng, f, n, range(v), range(v, n), TWO_STEP[category])[0])
    return make_algebra(f, _names(n), tensor, category)


def _inputs(f, rng):
    yield from _seeds(f)
    for category in TWO_STEP:
        for n in (3, 4, 5):
            yield _two_step(rng, f, n, category)


def _verdict_key(a, variant=1):
    """What a verdict says that no choice of basis can change."""
    v = actor_pipeline(a, variant)
    cond = v.condition_status
    return (v.status, v.exists, v.actor_kind, v.actor_dim, v.semidirect_dim,
            v.sufficient_flags, None if cond is None else (cond.passed, cond.details))


def _opposite(a):
    c = a.tensor
    return make_algebra(a.field, a.basis, tuple(tuple(c[j][i] for j in range(a.dim))
                                                for i in range(a.dim)), a.category)


@pytest.mark.parametrize("f", BASIS_FIELDS, ids=str)
def test_verdict_is_invariant_under_change_of_basis(f):
    rng = random.Random(f.p or 0)
    verdicts = set()
    for a in _inputs(f, rng):
        b = _conjugate(a, *_rand_invertible(rng, f, a.dim))
        for variant in (1, 2) if a.category == "leibniz" else (1,):
            key = _verdict_key(a, variant)
            assert _verdict_key(b, variant) == key, (a.category, a.tensor)
            verdicts.add((a.category, key[1]))
    # both answers in every category with a condition
    assert {(c, e) for c in ("leibniz", "associative", "commutative") for e in (True, False)} \
        <= verdicts


def test_verdict_is_invariant_under_a_big_entry_change_of_basis(monkeypatch):
    # entries near 3^40 put the constraint systems past the float64 bound
    # of the tall Q front end, so they take the selection route
    selected = []
    select = linalg._select_rref_q
    monkeypatch.setattr(linalg, "_select_rref_q", lambda x: selected.append(1) or select(x))
    sampled = [sample_algebra(random.Random(0), QQ, 3, c) for c in ("leibniz", "associative")]
    for a in (sl2(), a5_leibniz(), dual_numbers(), heisenberg(), m2_rationals(), *sampled):
        assert _verdict_key(_big_q_conjugate(a)) == _verdict_key(a), a.category
    assert selected


def _non_commutative(rng, f, n):
    """A two-step associative algebra with xy != yx for some x, y."""
    while True:
        a = _two_step(rng, f, n, "associative", v=2)
        if _opposite(a).tensor != a.tensor:
            return a


@pytest.mark.parametrize("f", FIELDS, ids=str)
def test_opposite_algebra_has_the_same_verdict(f):
    rng = random.Random(f.p or 0)
    cases = [strict_upper3(f), *(_non_commutative(rng, f, n) for n in (3, 4, 4))]
    if f is QQ:
        cases.append(m2_rationals())
    for a in cases + [_conjugate(a, *_rand_invertible(rng, f, a.dim)) for a in cases]:
        op = _opposite(a)
        assert op.tensor != a.tensor
        assert _verdict_key(op) == _verdict_key(a), a.tensor
