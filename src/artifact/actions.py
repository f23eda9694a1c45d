"""Actions of one algebra on another, derived-action tests, semidirect products.

An ActionPair stores two tensors: left[bi][aj] is the coefficient vector of
e_bi acting on e_aj from the left, right[ai][bj] the vector of e_ai acted on
from the right.  Either may be given as a function that builds it on first
read (linalg.lazy), as a candidate's induced action is; semidirect builds
the product's tensor on first read too, so its dimension costs nothing.
Whether such a pair is a derived action depends on the category; each
category carries a finite list of bilinear conditions that a split
extension forces, so checking them on basis tuples is sufficient.  The list
is one table, _conditions, with one row per condition: the couplings of a
Lie or commutative action and a module's two vanishing actions are rows
like every other.  check_derived_action is the one loop that reads it, and
its report's details hold one line per row checked, in order, the failing
row last.

The same question can be answered a second way: build the semidirect product
and run the category's identity suite on it.  crosscheck_semidirect runs both
routes independently and reports whether they agree.  The two routes are kept
separate on purpose; collapsing them would turn the equivalence into a
tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Algebra, InputError, algebra_from_json, identity_suite
from .fields import read_nested
from .linalg import Vector, basis_vector, bilinear, lazy, vec_add, vec_neg, vec_sub, vec_zero
from .reporting import Report


@dataclass(frozen=True)
class ActionPair:
    B: Algebra
    A: Algebra
    left: tuple = lazy()   # left[bi][aj] in A-coordinates
    right: tuple = lazy()  # right[ai][bj] in A-coordinates

    def act_left(self, bvec: Vector, avec: Vector) -> Vector:
        return bilinear(self.A.field, self.left, bvec, avec, self.A.dim)

    def act_right(self, avec: Vector, bvec: Vector) -> Vector:
        return bilinear(self.A.field, self.right, avec, bvec, self.A.dim)

    def to_json(self) -> dict:
        f = self.A.field
        return {
            "B": self.B.to_json(),
            "A": self.A.to_json(),
            "left": [[[f.to_json(x) for x in v] for v in plane] for plane in self.left],
            "right": [[[f.to_json(x) for x in v] for v in plane] for plane in self.right],
        }


def make_action(B: Algebra, A: Algebra, left, right) -> ActionPair:
    if B.field != A.field:
        raise InputError("acting and target algebras must share a field")
    lt = tuple(tuple(tuple(v) for v in plane) for plane in left)
    rt = tuple(tuple(tuple(v) for v in plane) for plane in right)
    if len(lt) != B.dim or any(len(p) != A.dim for p in lt) \
            or any(len(v) != A.dim for p in lt for v in p):
        raise InputError("left tensor must have shape dimB x dimA x dimA")
    if len(rt) != A.dim or any(len(p) != B.dim for p in rt) \
            or any(len(v) != A.dim for p in rt for v in p):
        raise InputError("right tensor must have shape dimA x dimB x dimA")
    return ActionPair(B, A, lt, rt)


def action_from_json(obj) -> ActionPair:
    if not isinstance(obj, dict) or set(obj) != {"B", "A", "left", "right"}:
        raise InputError("action JSON needs exactly the keys B, A, left, right")
    B = algebra_from_json(obj["B"])
    A = algebra_from_json(obj["A"])
    f = A.field
    left = read_nested(obj["left"], (B.dim, A.dim, A.dim), f.parse, "left action tensor")
    right = read_nested(obj["right"], (A.dim, B.dim, A.dim), f.parse, "right action tensor")
    return make_action(B, A, left, right)


def conjugation_action(A: Algebra) -> ActionPair:
    """A acting on itself by its own multiplication from both sides."""
    return make_action(A, A, A.tensor, A.tensor)


# ---------------------------------------------------------------------------
# derived-action conditions, one finite list per category
#
# Each condition is (name, slots, fn) where slots is a string over {B, A}
# giving quantifier order and fn maps the corresponding basis vectors to
# (lhs, rhs).  Bilinearity of everything in sight reduces the universal
# statement to basis tuples.


def _conditions(category: str, act: ActionPair):
    A, B = act.A, act.B
    f = A.field
    mA = A.multiply
    mB = B.multiply
    l = act.act_left
    r = act.act_right

    def add(u, v):
        return vec_add(f, u, v)

    def sub(u, v):
        return vec_sub(f, u, v)

    if category == "associative":
        return [
            ("(b1*b2)*a = b1*(b2*a)", "BBA",
             lambda b1, b2, a: (l(mB(b1, b2), a), l(b1, l(b2, a)))),
            ("a*(b1*b2) = (a*b1)*b2", "ABB",
             lambda a, b1, b2: (r(a, mB(b1, b2)), r(r(a, b1), b2))),
            ("(b1*a)*b2 = b1*(a*b2)", "BAB",
             lambda b1, a, b2: (r(l(b1, a), b2), l(b1, r(a, b2)))),
            ("b*(a1*a2) = (b*a1)*a2", "BAA",
             lambda b, a1, a2: (l(b, mA(a1, a2)), mA(l(b, a1), a2))),
            ("(a1*a2)*b = a1*(a2*b)", "AAB",
             lambda a1, a2, b: (r(mA(a1, a2), b), mA(a1, r(a2, b)))),
            ("a1*(b*a2) = (a1*b)*a2", "ABA",
             lambda a1, b, a2: (mA(a1, l(b, a2)), mA(r(a1, b), a2))),
        ]
    if category == "lie":
        return [
            # bracket antisymmetry couples the two tensors
            ("[a,b] = -[b,a] coupling", "AB", lambda a, b: (r(a, b), vec_neg(f, l(b, a)))),
            ("[[b1,b2],a] = [b1,[b2,a]]-[b2,[b1,a]]", "BBA",
             lambda b1, b2, a: (l(mB(b1, b2), a), sub(l(b1, l(b2, a)), l(b2, l(b1, a))))),
            ("[b,[a1,a2]] = [a1,[b,a2]]+[[b,a1],a2]", "BAA",
             lambda b, a1, a2: (l(b, mA(a1, a2)), add(mA(a1, l(b, a2)), mA(l(b, a1), a2)))),
        ]
    if category == "leibniz":
        return [
            ("[a1,[a2,b]] = [[a1,a2],b]-[[a1,b],a2]", "AAB",
             lambda a1, a2, b: (mA(a1, r(a2, b)), sub(r(mA(a1, a2), b), mA(r(a1, b), a2)))),
            ("[a1,[b,a2]] = [[a1,b],a2]-[[a1,a2],b]", "ABA",
             lambda a1, b, a2: (mA(a1, l(b, a2)), sub(mA(r(a1, b), a2), r(mA(a1, a2), b)))),
            ("[b,[a1,a2]] = [[b,a1],a2]-[[b,a2],a1]", "BAA",
             lambda b, a1, a2: (l(b, mA(a1, a2)), sub(mA(l(b, a1), a2), mA(l(b, a2), a1)))),
            ("[a,[b1,b2]] = [[a,b1],b2]-[[a,b2],b1]", "ABB",
             lambda a, b1, b2: (r(a, mB(b1, b2)), sub(r(r(a, b1), b2), r(r(a, b2), b1)))),
            ("[b1,[a,b2]] = [[b1,a],b2]-[[b1,b2],a]", "BAB",
             lambda b1, a, b2: (l(b1, r(a, b2)), sub(r(l(b1, a), b2), l(mB(b1, b2), a)))),
            ("[b1,[b2,a]] = [[b1,b2],a]-[[b1,a],b2]", "BBA",
             lambda b1, b2, a: (l(b1, l(b2, a)), sub(l(mB(b1, b2), a), r(l(b1, a), b2)))),
        ]
    if category == "alternative":
        return [
            ("b(a1a2) = (ba1)a2+(a1b)a2-a1(ba2)", "BAA",
             lambda b, a1, a2: (l(b, mA(a1, a2)),
                                sub(add(mA(l(b, a1), a2), mA(r(a1, b), a2)), mA(a1, l(b, a2))))),
            ("(a1a2)b = a1(a2b)-(a1b)a2+a1(ba2)", "AAB",
             lambda a1, a2, b: (r(mA(a1, a2), b),
                                add(sub(mA(a1, r(a2, b)), mA(r(a1, b), a2)), mA(a1, l(b, a2))))),
            ("(ba1)a2 = b(a1a2)-(ba2)a1+b(a2a1)", "BAA",
             lambda b, a1, a2: (mA(l(b, a1), a2),
                                add(sub(l(b, mA(a1, a2)), mA(l(b, a2), a1)), l(b, mA(a2, a1))))),
            ("a1(a2b) = (a1a2)b+(a2a1)b-a2(a1b)", "AAB",
             lambda a1, a2, b: (mA(a1, r(a2, b)),
                                sub(add(r(mA(a1, a2), b), r(mA(a2, a1), b)), mA(a2, r(a1, b))))),
            ("(b1b2)a = b1(b2a)-(b1a)b2+b1(ab2)", "BBA",
             lambda b1, b2, a: (l(mB(b1, b2), a),
                                add(sub(l(b1, l(b2, a)), r(l(b1, a), b2)), l(b1, r(a, b2))))),
            ("a(b1b2) = (ab1)b2+(b1a)b2-b1(ab2)", "ABB",
             lambda a, b1, b2: (r(a, mB(b1, b2)),
                                sub(add(r(r(a, b1), b2), r(l(b1, a), b2)), l(b1, r(a, b2))))),
            ("(ab1)b2 = a(b1b2)-(ab2)b1+a(b2b1)", "ABB",
             lambda a, b1, b2: (r(r(a, b1), b2),
                                add(sub(r(a, mB(b1, b2)), r(r(a, b2), b1)), r(a, mB(b2, b1))))),
            ("b1(b2a) = (b1b2)a+(b2b1)a-b2(b1a)", "BBA",
             lambda b1, b2, a: (l(b1, l(b2, a)),
                                sub(add(l(mB(b1, b2), a), l(mB(b2, b1), a)), l(b2, l(b1, a))))),
        ]
    if category == "commutative":
        return [("b*a = a*b coupling", "BA", lambda b, a: (l(b, a), r(a, b)))] \
            + _conditions("associative", act)
    if category == "module":
        zero = vec_zero(f, A.dim)
        return [
            ("left action vanishes", "BA", lambda b, a: (l(b, a), zero)),
            ("right action vanishes", "AB", lambda a, b: (r(a, b), zero)),
        ]
    if category == "raw":
        raise InputError("category 'raw' has no derived-action conditions")
    raise InputError(f"unknown category {category!r}")


def check_derived_action(category: str, act: ActionPair) -> Report:
    """Check the category's derived-action conditions on all basis tuples.

    Each row of _conditions(category, act) is one condition, checked in
    order up to the first failure; details holds one line per row checked,
    the failing row last.
    """
    f = act.A.field
    nB, nA = act.B.dim, act.A.dim
    details = []
    eB = [basis_vector(f, nB, i) for i in range(nB)]
    eA = [basis_vector(f, nA, i) for i in range(nA)]
    for name, slots, fn in _conditions(category, act):
        ranges = [range(nB) if s == "B" else range(nA) for s in slots]
        for combo in itertools.product(*ranges):
            vecs = [eB[idx] if s == "B" else eA[idx] for s, idx in zip(slots, combo)]
            lhs, rhs = fn(*vecs)
            if lhs != rhs:
                return Report(False, label=name, witness=combo, lhs=lhs, rhs=rhs,
                              details=details + [{"name": name, "status": "fail"}])
        details.append({"name": name, "status": "pass"})
    return Report(True, details=details)


def semidirect(act: ActionPair) -> Algebra:
    """Algebra on B + A with products (b'+a')*(b+a) = b'b + (a'a + a'b + b'a).

    The B block occupies coordinates 0..dimB-1.  The category tag is "raw":
    whether the result satisfies any identity suite is a question, not a
    promise.  The tensor is built from the action's on first read.
    """
    B, A = act.B, act.A
    f = A.field
    nB, nA = B.dim, A.dim
    n = nB + nA

    def tensor():
        zero_a, zero_b = vec_zero(f, nA), vec_zero(f, nB)
        out = []
        for i in range(n):
            plane = []
            for j in range(n):
                if i < nB and j < nB:
                    plane.append(tuple(B.tensor[i][j]) + zero_a)
                elif i < nB:
                    plane.append(zero_b + tuple(act.left[i][j - nB]))
                elif j < nB:
                    plane.append(zero_b + tuple(act.right[i - nB][j]))
                else:
                    plane.append(zero_b + tuple(A.tensor[i - nB][j - nB]))
            out.append(tuple(plane))
        return tuple(out)

    names = tuple(f"b.{x}" for x in B.basis) + tuple(f"a.{x}" for x in A.basis)
    return Algebra(f, n, names, tensor, "raw")


def crosscheck_semidirect(category: str, act: ActionPair) -> Report:
    """Run the two independent routes and report whether they agree.

    Route one checks the per-category derived-action conditions directly.
    Route two builds the semidirect product and runs the category's identity
    suite on it.  A split-extension argument says the answers must match;
    any instance where they differ is a soundness bug in one of the routes.
    """
    alpha = check_derived_action(category, act)
    prod = semidirect(act)
    beta = identity_suite(prod, category)
    details = [
        {"route": "derived-action conditions", "passed": alpha.passed,
         "label": alpha.label, "witness": alpha.witness},
        {"route": "identity suite on the semidirect product", "passed": beta.passed,
         "label": beta.label, "witness": beta.witness},
    ]
    if alpha.passed != beta.passed:
        return Report(False, label="routes disagree", details=details)
    return Report(True, label="derived" if alpha.passed else "not-derived", details=details)
