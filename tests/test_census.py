"""A census of the smallest algebras: every structure tensor of dims 1 and
2 over GF(2) and GF(3) that passes a category's identity suite, decided in
lie, leibniz (both bracket variants), associative and commutative.  Nothing
is sampled and nothing is reduced to orbits, so every answer of the
pipeline at these sizes is pinned: a change to any of them shows as a diff
of CENSUS."""

import itertools
from collections import Counter

from artifact.actions import crosscheck_semidirect
from artifact.algebra import identity_suite, make_algebra
from artifact.existence import actor_pipeline
from artifact.fields import GF

CATEGORIES = ("lie", "leibniz", "associative", "commutative")

# (p, dim, category, variant, status, condition passed) -> algebras; the
# variant is the biderivation bracket's, None outside leibniz, and the
# condition None where the category has none (lie)
CENSUS = {
    (2, 1, "lie", None, "exists", None): 1,
    (2, 1, "leibniz", 1, "not-exists", False): 1,
    (2, 1, "leibniz", 2, "not-exists", False): 1,
    (2, 1, "associative", None, "exists", True): 2,
    (2, 1, "commutative", None, "exists", True): 2,
    (2, 2, "lie", None, "exists", None): 7,
    (2, 2, "leibniz", 1, "exists", True): 12,
    (2, 2, "leibniz", 1, "not-exists", False): 1,
    (2, 2, "leibniz", 2, "exists", True): 12,
    (2, 2, "leibniz", 2, "not-exists", False): 1,
    (2, 2, "associative", None, "exists", True): 27,
    (2, 2, "associative", None, "not-exists", False): 1,
    (2, 2, "commutative", None, "exists", True): 21,
    (2, 2, "commutative", None, "not-exists", False): 1,
    (3, 1, "lie", None, "exists", None): 1,
    (3, 1, "leibniz", 1, "not-exists", False): 1,
    (3, 1, "leibniz", 2, "not-exists", False): 1,
    (3, 1, "associative", None, "exists", True): 3,
    (3, 1, "commutative", None, "exists", True): 3,
    (3, 2, "lie", None, "exists", None): 9,
    (3, 2, "leibniz", 1, "exists", True): 40,
    (3, 2, "leibniz", 1, "not-exists", False): 1,
    (3, 2, "leibniz", 2, "exists", True): 40,
    (3, 2, "leibniz", 2, "not-exists", False): 1,
    (3, 2, "associative", None, "exists", True): 120,
    (3, 2, "associative", None, "not-exists", False): 1,
    (3, 2, "commutative", None, "exists", True): 104,
    (3, 2, "commutative", None, "not-exists", False): 1,
}


def _algebras(p, n, category):
    """Every algebra of dim n over GF(p) that passes the category's suite,
    its tensor entries in itertools.product order."""
    names = [f"e{i}" for i in range(n)]
    for flat in itertools.product(range(p), repeat=n ** 3):
        tensor = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
                  for i in range(n)]
        a = make_algebra(GF(p), names, tensor, category)
        if identity_suite(a).passed:
            yield a


def test_census_of_dims_1_and_2():
    counts = Counter()
    for p, n, category in itertools.product((2, 3), (1, 2), CATEGORIES):
        for a in _algebras(p, n, category):
            for variant in ((1, 2) if category == "leibniz" else (None,)):
                v = actor_pipeline(a, variant or 1)
                cond = v.condition_status
                if category == "lie":
                    assert v.exists and cond is None
                else:
                    assert cond.passed == v.exists, (a.tensor, category, variant)
                # the derived-action conditions and the product's suite, on
                # the verdict's own action
                cross = crosscheck_semidirect(category, v.actor.action_pair())
                assert cross.passed and (cross.label == "derived") == v.exists
                counts[(p, n, category, variant, v.status,
                        None if cond is None else cond.passed)] += 1
    assert counts == CENSUS
