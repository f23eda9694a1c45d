"""An end-to-end reference verdict, assembled from the tests' own oracles.

reference_verdict(A, variant) decides existence with no numpy kernel of
the program: the candidate's basis is the RREF of sympy's nullspace of
oracle_constraints, over Q or GF(p); its structure constants are
compositions of its basis pairs, in Fractions or integers mod p, read off
that basis at its pivots; the product is the eager semidirect() of the
action those pairs induce; and the suite is the per-tuple sweep
first_exact_failure, by Algebra.multiply.  The brackets, the two
conditions and the flags are restated here from their definitions.  Its
Verdict.to_json bytes must equal actor_pipeline's, so a proof that lets the
program skip a check cannot change an answer unseen.
"""

import json
import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.matrices import DomainMatrix

from artifact.actions import make_action, semidirect
from artifact.algebra import SUITES, make_algebra
from artifact.corpus import (a5_leibniz, dual_numbers, heisenberg, m2_rationals,
                             sample_algebra, sl2, truncated_poly, zero_algebra)
from artifact.existence import actor_pipeline
from artifact.fields import GF, QQ
from artifact.reporting import Report

from test_algebra import first_exact_failure
from test_constructions import oracle_constraints

# category -> the kind of its candidate, by variant for Leibniz
KINDS = {"lie": "der", "associative": "bim", "commutative": "mult", "module": "zero"}


def _mul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _sub(x, y):
    return [[a - b for a, b in zip(r, s)] for r, s in zip(x, y)]


def _add(x, y):
    return [[a + b for a, b in zip(r, s)] for r, s in zip(x, y)]


def _neg(x):
    return [[-a for a in row] for row in x]


# kind -> (L, R) of the product of pairs a = (La, Ra) and b = (Lb, Rb)
BRACKETS = {
    "der": lambda La, Ra, Lb, Rb: (_sub(_mul(La, Lb), _mul(Lb, La)),) * 2,
    "bim": lambda La, Ra, Lb, Rb: (_mul(La, Lb), _mul(Rb, Ra)),
    "bider1": lambda La, Ra, Lb, Rb: (_add(_mul(La, Lb), _mul(Rb, La)),
                                      _sub(_mul(Rb, Ra), _mul(Ra, Rb))),
    "bider2": lambda La, Ra, Lb, Rb: (_sub(_mul(Rb, La), _mul(La, Rb)),
                                      _sub(_mul(Rb, Ra), _mul(Ra, Rb))),
    "mult": lambda La, Ra, Lb, Rb: (_mul(La, Lb),) * 2,
}
# kinds whose flattened coordinates hold the left component only, and the
# sign of the right one
FOLLOW = {"der": -1, "mult": 1, "zero": 1}


def _domain(f):
    return sp.QQ if f.p is None else sp.GF(f.p)


def _scalar(f, x):
    if f.p is not None:
        return int(x) % f.p
    return Fraction(int(x.numerator), int(x.denominator))


def _rank(f, rows):
    rows = [[sp.Rational(x) for x in row] for row in rows]
    if not rows or not rows[0]:
        return 0
    return DomainMatrix.from_Matrix(sp.Matrix(rows)).convert_to(_domain(f)).rank()


def _span(A, kind):
    """The candidate's basis, the RREF of sympy's nullspace of the oracle's
    constraint matrix, as rows of field scalars, with its pivots."""
    f, n = A.field, A.dim
    if kind == "zero" or n == 0:
        return [], ()
    mat, _ = oracle_constraints(A, kind[:5] if kind.startswith("bider") else kind)
    null = DomainMatrix.from_Matrix(mat).convert_to(_domain(f)).nullspace()
    if not null.shape[0]:
        return [], ()
    red, pivots = null.rref()
    return [[_scalar(f, x) for x in row] for row in red.to_list()], tuple(pivots)


def _pairs(A, kind, rows):
    """The basis pairs (L, R), L[r][c] the coefficient of e_r in L(e_c)."""
    n, nn = A.dim, A.dim ** 2
    out = []
    for row in rows:
        L = [row[r * n:(r + 1) * n] for r in range(n)]
        R = (_reduce(A.field, [[FOLLOW[kind] * x for x in r] for r in L]) if kind in FOLLOW
             else [row[nn + r * n:nn + (r + 1) * n] for r in range(n)])
        out.append((L, R))
    return out


def _reduce(f, x):
    return [[a % f.p for a in row] for row in x] if f.p is not None else x


def _constants(A, kind, rows, pivots, pairs):
    """The structure constants: each composition of two basis pairs, read
    off the RREF basis at its pivots, after checking that it is the
    combination of the basis rows those coordinates give."""
    f, n = A.field, A.dim
    tensor = []
    for La, Ra in pairs:
        plane = []
        for Lb, Rb in pairs:
            L, R = (_reduce(f, x) for x in BRACKETS[kind](La, Ra, Lb, Rb))
            flat = [x for row in L for x in row]
            if kind not in FOLLOW:
                flat += [x for row in R for x in row]
            coords = [flat[p] for p in pivots]
            back = [sum(c * row[k] for c, row in zip(coords, rows)) for k in range(len(flat))]
            assert _reduce(f, [back])[0] == flat, "the span is closed"
            plane.append(tuple(coords))
        tensor.append(tuple(plane))
    return tuple(tensor)


# condition -> (details key, label, lhs, rhs) for basis pairs s and t
CONDITIONS = {
    1: ("bider_dim", "[phi,[a,phi']] = -[phi,[phi',a]]",
        lambda s, t: _mul(s[0], t[1]), lambda s, t: _neg(_mul(s[0], t[0]))),
    2: ("bim_dim", "f*(a*f') = (f*a)*f'",
        lambda s, t: _mul(s[0], t[1]), lambda s, t: _mul(t[1], s[0])),
}


def _condition(A, which):
    """The condition on every pair of basis pairs, columns compared in order
    (s, t, column)."""
    f = A.field
    key, label, lhs, rhs = CONDITIONS[which]
    kind = "bider1" if which == 1 else "bim"
    pairs = _pairs(A, kind, _span(A, kind)[0])
    details = [{key: len(pairs)}]
    for s, a in enumerate(pairs):
        for t, b in enumerate(pairs):
            x, y = _reduce(f, lhs(a, b)), _reduce(f, rhs(a, b))
            for col in range(A.dim):
                u, v = tuple(r[col] for r in x), tuple(r[col] for r in y)
                if u != v:
                    return Report(False, label=label, witness=(s, t, col), lhs=u, rhs=v,
                                  details=details)
    return Report(True, details=details)


def reference_verdict(A, variant=1) -> dict:
    """Verdict.to_json(A.field.to_json) of the decision, every stage by the
    oracles above."""
    f, n = A.field, A.dim
    for tag in SUITES[A.category]:
        assert first_exact_failure(A, tag) is None, "the input is in its category"
    cat = A.category
    kind = f"bider{variant}" if cat == "leibniz" else KINDS[cat]
    ann_rows = [[A.tensor[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    ann_rows += [[A.tensor[j][i][k] for i in range(n)] for j in range(n) for k in range(n)]
    flags = {"ann_zero": n - _rank(f, ann_rows) == 0,
             "perfect": _rank(f, [A.tensor[i][j] for i in range(n) for j in range(n)]) == n}
    rows, pivots = _span(A, kind)
    pairs = _pairs(A, kind, rows)
    m = len(pairs)
    names = [f"{kind}{i}" for i in range(m)]
    B = make_algebra(f, names, _constants(A, kind, rows, pivots, pairs), "raw")
    left = [[tuple(r[j] for r in L) for j in range(n)] for L, _ in pairs]
    right = [[tuple(r[i] for r in pairs[b][1]) for b in range(m)] for i in range(n)]
    prod = semidirect(make_action(B, A, left, right))
    failure = next(filter(None, (first_exact_failure(prod, tag) for tag in SUITES[cat])), None)
    out = {"status": "exists" if failure is None else "not-exists", "exists": failure is None,
           "sufficient_flags": flags, "actor_kind": kind, "actor_dim": m,
           "semidirect_dim": m + n}
    if failure is not None:
        out["failure"] = {"label": failure.label, "witness": list(failure.witness)}
    which = {"leibniz": 1, "associative": 2, "commutative": 2}.get(cat)
    if which is not None:
        out["condition_status"] = _condition(A, which).to_json(f.to_json)
    if cat == "commutative":
        out["notes"] = ["induced action is symmetric: b*a = a*b on all basis pairs"]
    return out


CATEGORIES = ("lie", "leibniz", "associative", "commutative")


def _cases():
    yield from ((a, 1) for a in (sl2(), heisenberg(), m2_rationals(), dual_numbers(),
                                 truncated_poly(QQ, 2, "commutative"), sl2(GF(3))))
    yield from ((a5_leibniz(), v) for v in (1, 2))
    # dim 3 only where it is cheap: over Q the sympy nullspace and the
    # per-tuple sweep of an N = 21 product take most of a second
    for f in (GF(2), GF(3), QQ):
        for n in (0, 1, 2, 3) if f.p else (0, 1, 2):
            for cat in CATEGORIES + ("module",):
                for v in (1, 2) if cat == "leibniz" else (1,):
                    yield zero_algebra(f, n, cat), v
    for f in (GF(2), GF(3), GF(5), QQ, GF(2 ** 31 - 1)):
        for cat in CATEGORIES:
            for n, seeds in ((1, 2), (2, 2), (3, 1)):
                for seed in range(seeds):
                    a = sample_algebra(random.Random(seed), f, n, cat)
                    for v in (1, 2) if cat == "leibniz" else (1,):
                        yield a, v
    # more dim 3 over Q: the Leibniz, associative and commutative draws of
    # seed 2 reduce an 81 x 18 constraint system in the tall front end over Q
    for cat in CATEGORIES:
        a = sample_algebra(random.Random(2), QQ, 3, cat)
        for v in (1, 2) if cat == "leibniz" else (1,):
            yield a, v


CASES = list(_cases())


@pytest.mark.parametrize("a,variant", CASES,
                         ids=[f"{a.field}-{a.category}-{a.dim}-v{v}-{i}"
                              for i, (a, v) in enumerate(CASES)])
def test_pipeline_verdict_equals_the_reference_verdict(a, variant):
    got = actor_pipeline(a, variant).to_json(a.field.to_json)
    assert json.dumps(got) == json.dumps(reference_verdict(a, variant))
