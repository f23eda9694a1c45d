"""Action pairs: derived-action conditions, semidirect products.

The central safety property: the per-category condition lists and the
identity suite on the semidirect product are independent routes to the same
boolean, and they must agree on everything we can throw at them.
"""

import hashlib
import json
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


def symmetric_action(rng, B, A):
    """A random action with right[a][b] = left[b][a]."""
    left = sample_action(rng, B, A).left
    return make_action(B, A, left, tuple(zip(*left)))


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
    with pytest.raises(InputError, match="^category 'raw' has no derived-action conditions$"):
        check_derived_action("raw", zero_action(A, A))
    with pytest.raises(InputError, match="^unknown category 'ring'$"):
        check_derived_action("ring", zero_action(A, A))


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
    # the coupling is the table's first row, so it is the one details line
    assert rep.details == [{"name": "[a,b] = -[b,a] coupling", "status": "fail"}]


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
    assert rep.details == [{"name": "left action vanishes", "status": "pass"},
                           {"name": "right action vanishes", "status": "fail"}]
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
    assert rep.details == [{"name": "b*a = a*b coupling", "status": "fail"}]
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
    # random, symmetric and zero actions of the two categories above never
    # sampled; each category must meet both verdicts
    labels = {"commutative": [], "module": []}
    for f in (GF(2), gf3, QQ):
        rng = random.Random(f"crosscheck-{f}")
        for i in range(60):
            cat = ("commutative", "module")[i % 2]
            B = sample_algebra(rng, f, (1, 3)[(i // 2) % 2], cat)
            A = sample_algebra(rng, f, (1, 3)[(i // 4) % 2], cat)
            draw = (sample_action, symmetric_action, lambda rng, B, A: zero_action(B, A))[i % 3]
            rep = crosscheck_semidirect(cat, draw(rng, B, A))
            assert rep.passed, (f, i, cat, rep.details)
            labels[cat].append(rep.label)
    for cat, seen in labels.items():
        assert set(seen) == {"derived", "not-derived"}, cat


def report_corpus():
    """(field, check_derived_action report) for 40 seeds of each field and
    category: dims 0, 1 or 3 (a Q Leibniz draw at dim 2 exhausts its
    rejection cutoff), and a random, zero or conjugation action."""
    for f in (GF(2), gf3, GF(5), QQ):
        for cat in ("lie", "leibniz", "associative", "commutative", "alternative", "module"):
            for seed in range(40):
                rng = random.Random(f"{f}/{cat}/{seed}")
                dims = rng.choice((0, 1, 3)), rng.choice((0, 1, 3))
                B, A = (zero_algebra(f, n, cat) if cat == "module" or n == 0
                        else sample_algebra(rng, f, n, cat) for n in dims)
                kind = rng.randrange(3)
                act = (sample_action(rng, B, A), zero_action(B, A), conjugation_action(A))[kind]
                yield f, check_derived_action(cat, act)


# sha256 of the reports of report_corpus without their details, recorded
# while the couplings and the vanishing actions were loops of their own, so
# their rows in _conditions must give the same label, witness and sides
REPORT_CORPUS_DIGEST = "6bfdb49aafa4b47466d7767c1a5cc3821e9b59dff069574038614fb69aa8697a"


def test_derived_action_reports_are_pinned():
    h = hashlib.sha256()
    for f, rep in report_corpus():
        out = rep.to_json(f.to_json)
        out.pop("details", None)
        h.update(json.dumps(out, sort_keys=True).encode())
    assert h.hexdigest() == REPORT_CORPUS_DIGEST


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
    right = tuple(tuple(tuple(QQ.zero for _ in range(2))
                        for _ in range(2)) for _ in range(2))
    with pytest.raises(InputError, match="left tensor must have shape"):
        make_action(A, A, left[:1], right)


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
