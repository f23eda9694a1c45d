"""Action pairs: derived-action conditions, semidirect products.

The central safety property: the per-category condition lists and the
identity suite on the semidirect product are independent routes to the same
boolean, and they must agree on everything we can throw at them.
"""

import random

import pytest

from artifact.actions import (ActionPair, action_from_json,
                              check_derived_action, conjugation_action,
                              crosscheck_semidirect, make_action, semidirect)
from artifact.algebra import InputError, identity_suite, make_algebra
from artifact.corpus import (a5_leibniz, dual_numbers, heisenberg,
                             m2_rationals, sample_action, sample_algebra,
                             sl2, zero_algebra)
from artifact.fields import GF, QQ

gf3 = GF(3)


def zero_action(B, A):
    f = B.field
    left = tuple(tuple(tuple(f.zero for _ in range(A.dim))
                       for _ in range(A.dim)) for _ in range(B.dim))
    right = tuple(tuple(tuple(f.zero for _ in range(A.dim))
                        for _ in range(B.dim)) for _ in range(A.dim))
    return make_action(B, A, left, right)


@pytest.mark.parametrize("a,cat", [
    (sl2(), "lie"),
    (heisenberg(), "lie"),
    (a5_leibniz(), "leibniz"),
    (m2_rationals(), "associative"),
    (dual_numbers(), "associative"),
])
def test_conjugation_action_is_derived(a, cat):
    act = conjugation_action(a)
    assert check_derived_action(cat, act).passed


def test_zero_action_is_derived_in_every_supported_category():
    for cat in ("lie", "leibniz", "associative", "commutative"):
        A = zero_algebra(QQ, 2, cat)
        B = zero_algebra(QQ, 2, cat)
        assert check_derived_action(cat, zero_action(B, A)).passed


def test_module_category_accepts_only_zero_actions():
    A = zero_algebra(QQ, 2, "module")
    B = zero_algebra(QQ, 1, "module")
    assert check_derived_action("module", zero_action(B, A)).passed
    left = (((QQ.one, QQ.zero), (QQ.zero, QQ.zero)),)
    right = (((QQ.zero, QQ.zero),), ((QQ.zero, QQ.zero),))
    act = make_action(B, A, left, right)
    assert not check_derived_action("module", act).passed


def test_raw_category_has_no_condition_list():
    A = zero_algebra(QQ, 1, "raw")
    with pytest.raises(InputError):
        check_derived_action("raw", zero_action(A, A))


def test_lie_coupling_is_enforced():
    # adjoint action of sl2 on itself passes; breaking one right entry
    # must trip the right[i][b] = -left[b][i] coupling
    a = sl2()
    act = conjugation_action(a)
    rep = check_derived_action("lie", act)
    assert rep.passed
    right = [list(list(col) for col in row) for row in act.right]
    right[0][0][2] = QQ.add(right[0][0][2], QQ.one)
    broken = make_action(a, a, act.left, tuple(
        tuple(tuple(col) for col in row) for row in right))
    rep = check_derived_action("lie", broken)
    assert not rep.passed and rep.witness is not None


def test_module_right_action_must_vanish():
    # a zero left action and one nonzero right product, a1*b0 = a1
    A = zero_algebra(QQ, 2, "module")
    B = zero_algebra(QQ, 1, "module")
    left = (((QQ.zero, QQ.zero), (QQ.zero, QQ.zero)),)
    right = (((QQ.zero, QQ.zero),), ((QQ.zero, QQ.one),))
    act = make_action(B, A, left, right)
    rep = check_derived_action("module", act)
    assert (rep.passed, rep.label, rep.witness) == (False, "right action vanishes", (1, 0))
    assert (rep.lhs, rep.rhs) == ((QQ.zero, QQ.one), (QQ.zero, QQ.zero))
    cross = crosscheck_semidirect("module", act)
    assert (cross.passed, cross.label) == (True, "not-derived")


def test_commutative_coupling_is_enforced():
    # b0*a1 = a0 with a zero right action breaks b*a = a*b at (b0, a1)
    A = zero_algebra(QQ, 2, "commutative")
    B = zero_algebra(QQ, 1, "commutative")
    left = (((QQ.zero, QQ.zero), (QQ.one, QQ.zero)),)
    right = (((QQ.zero, QQ.zero),), ((QQ.zero, QQ.zero),))
    act = make_action(B, A, left, right)
    rep = check_derived_action("commutative", act)
    assert (rep.passed, rep.label, rep.witness) == (False, "b*a = a*b coupling", (0, 1))
    assert (rep.lhs, rep.rhs) == ((QQ.one, QQ.zero), (QQ.zero, QQ.zero))
    cross = crosscheck_semidirect("commutative", act)
    assert (cross.passed, cross.label) == (True, "not-derived")


def test_crosscheck_agrees_on_random_actions():
    rng = random.Random(123)
    for i in range(150):
        cat = ("lie", "leibniz", "associative")[i % 3]
        B = sample_algebra(rng, gf3, 1 + (i % 2), cat)
        A = sample_algebra(rng, gf3, 1 + ((i // 2) % 2), cat)
        act = sample_action(rng, B, A)
        rep = crosscheck_semidirect(cat, act)
        assert rep.passed, (i, cat, rep.label)


def test_crosscheck_label_states_the_shared_verdict():
    act = conjugation_action(sl2())
    rep = crosscheck_semidirect("lie", act)
    assert rep.passed and rep.label == "derived"


def test_semidirect_shape_and_blocks():
    a = sl2()
    act = conjugation_action(a)
    s = semidirect(act)
    assert s.dim == 6
    assert s.category == "raw"
    assert list(s.basis[:3]) == ["b.e", "b.f", "b.h"]
    assert list(s.basis[3:]) == ["a.e", "a.f", "a.h"]
    # B block carries B's tensor, padded; A block carries A's
    for i in range(3):
        for j in range(3):
            assert s.tensor[i][j][:3] == a.tensor[i][j]
            assert all(x == QQ.zero for x in s.tensor[i][j][3:])
            assert s.tensor[3 + i][3 + j][3:] == a.tensor[i][j]
            assert all(x == QQ.zero for x in s.tensor[3 + i][3 + j][:3])
    # semidirect of the adjoint action is again a Lie algebra
    assert identity_suite(s, "lie").passed


def test_semidirect_with_zero_dimensional_factor():
    A = sl2()
    B = zero_algebra(QQ, 0, "lie")
    s = semidirect(zero_action(B, A))
    assert s.dim == 3 and identity_suite(s, "lie").passed


def test_action_json_round_trip():
    act = conjugation_action(a5_leibniz(GF(5)))
    again = action_from_json(act.to_json())
    assert again.left == act.left and again.right == act.right
    assert again.A.tensor == act.A.tensor and again.B.basis == act.B.basis


def test_action_from_json_requires_exact_keys():
    obj = conjugation_action(sl2()).to_json()
    obj["unexpected"] = 0
    with pytest.raises(InputError):
        action_from_json(obj)
    del obj["unexpected"]
    del obj["right"]
    with pytest.raises(InputError):
        action_from_json(obj)


def test_make_action_validates_shapes_and_fields():
    A = zero_algebra(QQ, 2, "lie")
    B = zero_algebra(GF(3), 2, "lie")
    with pytest.raises(InputError):
        make_action(B, A, ((), ()), ((), ()))
    left = tuple(tuple(tuple(QQ.zero for _ in range(2))
                       for _ in range(2)) for _ in range(2))
    short_right = (((QQ.zero, QQ.zero),),)
    with pytest.raises(InputError):
        make_action(A, A, left, short_right)


def test_crosscheck_agrees_on_alternative_actions():
    # the alternative category's eight derived-action conditions against the
    # alternative suite on the semidirect product
    m2 = m2_rationals()
    m2 = make_algebra(QQ, m2.basis, m2.tensor, "alternative")
    rep = crosscheck_semidirect("alternative", conjugation_action(m2))
    assert rep.passed and rep.label == "derived"
    labels = []
    for f in (gf3, GF(5), QQ):
        rng = random.Random(f"alternative-{f}")
        for _ in range(15):
            a = sample_algebra(rng, f, 2, "alternative")
            b = sample_algebra(rng, f, 2, "alternative")
            for act in (conjugation_action(a), sample_action(rng, b, a)):
                rep = crosscheck_semidirect("alternative", act)
                assert rep.passed, (f, rep.details)
                labels.append(rep.label)
    assert labels[::2] == ["derived"] * 45 and "not-derived" in labels[1::2]
