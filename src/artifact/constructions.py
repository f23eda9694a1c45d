"""Actor candidates as algebras of matrix pairs cut out by linear constraints.

Each candidate kind is one row of KIND_TABLE: the category of its own
product, the source category whose identities cut it out, its bracket, and
how the right component follows from the left one (independent, its
negative, or equal).  A pair (L, R) acts on A by b*x = L(x) and x*b = R(x).

The constraints are the source's identities, algebra.IDENTITIES, with b in
one slot.  The candidate is their nullspace over the entries of the
independent components; its basis is canonicalized by RREF over the
flattened coordinates (row-major, left matrix first), so identical inputs
give byte-identical actors.

Constraint rows are assembled in integers.  Each term is one einsum of lam
times the structure tensor (the integer array the identity suite uses) with
the identity matrix, added with its sign into the block of its component.
Over Q the rows are lam times their values, lam the lcm of the tensor's
denominators, which keeps the nullspace, and they go into Matrix.nullspace
as Python ints; over GF(p) they are reduced mod p.

Every candidate carries a closure certificate: the product of any two basis
pairs is re-expressed in the basis, and a pair that escapes the span raises
ClosureError instead of silently producing garbage structure constants.
Products are taken in integers, one left basis pair s at a time against all
pairs t, one matmul per term of the bracket: the basis is multiplied by lam,
the lcm of its denominators (1 over GF(p)), so a product is lam^2 times its
value.  As the basis is in RREF, the coordinates of a product P are its
entries at the pivot columns, and P is in the span exactly when
lam * P == P[:, pivots] @ (lam * basis), mod p over GF(p).  The
condition 1/2 checks compare products of basis pairs the same way.

The candidate keeps both integer arrays: the integer pairs, which the
condition checks reuse, and the structure constants times lam^2 as
linalg.exact_ints gives them (reduced mod p over GF(p)).  semidirect_tensor
places them, with the target's own integer tensor, as the four blocks of
the semidirect product's integer tensor, so the pipeline's semidirect suite
never converts the product's N^3 field scalars back to integers.

Both the assembly and the products run on linalg.integer_array's rungs:
float64 while the caller's bound on every value computed stays below 2^53,
so each matmul is an exact BLAS dgemm, then int64, then Python ints.  The
module keeps no dtype or residue code of its own: differences are tested by
linalg.nonzero_mod, residues taken by linalg.exact_ints, and every value
handed back to exact code (constraint rows, structure constants, condition
witnesses) leaves numpy through linalg.python_ints, never as floats.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .actions import ActionPair, make_action
from .algebra import (
    IDENTITIES,
    SUITES,
    Algebra,
    InputError,
    _integer_tensor,
    algebra_from_json,
    annihilator,
    derived_subspace,
    identity_suite,
    make_algebra,
    suite_bound,
)
from .linalg import (
    Matrix,
    Vector,
    basis_vector,
    exact_dtype,
    exact_ints,
    express_in_rref_rows,
    integer_array,
    magnitude,
    nonzero_mod,
    python_ints,
    rung,
)
from .reporting import Report


class ConstructionError(RuntimeError):
    """A construction step failed in a way that signals a soundness bug."""


class ClosureError(ConstructionError):
    """A product of basis pairs left the candidate's own span."""


class Kind(NamedTuple):
    category: str  # category tag of the candidate's own product
    source: str  # category whose identities, one argument acting, cut it out
    name: str  # what the candidate is called in a refusal
    bracket: str  # left component of [a, b], a signed sum of products
    right: str  # "neg" (minus the left one), "same", or an independent
    #             right component given by its bracket


KIND_TABLE = {
    "der": Kind("lie", "lie", "derivations", "aLbL - bLaL", "neg"),
    "bim": Kind("associative", "associative", "bimultipliers", "aLbL", "bRaR"),
    "bider1": Kind("leibniz", "leibniz", "biderivations", "aLbL + bRaL", "bRaR - aRbR"),
    "bider2": Kind("leibniz", "leibniz", "biderivations", "bRaL - aLbR", "bRaR - aRbR"),
    # the product is composition: always associative, not always commutative
    "mult": Kind("associative", "commutative", "multipliers", "aLbL", "same"),
    "zero": Kind("module", "module", "the zero actor", "", "same"),
}

KINDS = tuple(KIND_TABLE)

# right-component rules, as the sign s of R = sL: the binary row
# x*y = s y*x of the source suite with b at x
_FOLLOW = {"neg": -1, "same": 1}


@functools.cache
def _signed(text: str):
    """'A - B + C' as ((1, 'A'), (-1, 'B'), (1, 'C'))."""
    return tuple((-1 if sign == "-" else 1, term)
                 for sign, term in re.findall(r"([+-]?)\s*([^\s+-]+)", text))


@dataclass(frozen=True)
class BiMap:
    """Pair of square matrices: left component b*(-), right component (-)*b."""

    left: Matrix
    right: Matrix


def _flatten(kind: str, bm: BiMap) -> Vector:
    mats = (bm.left,) if KIND_TABLE[kind].right in _FOLLOW else (bm.left, bm.right)
    return tuple(x for m in mats for row in m.rows for x in row)


def _pair(kind: str, left: Matrix, right: Matrix | None = None) -> BiMap:
    """The pair with this left component; right is used only when the kind
    leaves the right component independent."""
    sign = _FOLLOW.get(KIND_TABLE[kind].right)
    return BiMap(left, right if sign is None else left if sign > 0 else left.neg())


@dataclass(frozen=True)
class ActorAlgebra:
    kind: str
    target: Algebra
    maps: tuple  # basis BiMaps
    tensor: tuple  # structure constants of the bracket/product in that basis
    basis_matrix: Matrix  # RREF rows over the flattened coordinates
    pivots: tuple
    # (lam, lam * basis pairs), the integer pairs of _integer_pairs
    pairs: tuple = field(compare=False, repr=False)
    # (den, den * tensor) as an integer (dim, dim, dim) array of
    # linalg.exact_dtype: over GF(p) den is 1 and the dtype the narrowest
    # unsigned one holding p - 1, over Q int64, or object with the pairs
    constants: tuple = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.maps)

    def as_algebra(self) -> Algebra:
        names = tuple(f"{self.kind}{i}" for i in range(self.dim))
        return make_algebra(self.target.field, names, self.tensor,
                            KIND_TABLE[self.kind].category)

    def action_pair(self) -> ActionPair:
        """The action this candidate induces on its target: left by the left
        components, right by the right components."""
        A = self.target
        n = A.dim
        left = tuple(tuple(bm.left.col(j) for j in range(n)) for bm in self.maps)
        right = tuple(tuple(self.maps[b].right.col(i) for b in range(self.dim))
                      for i in range(n))
        return make_action(self.as_algebra(), A, left, right)

    def member_coords(self, bm: BiMap) -> Vector | None:
        """Coordinates of a pair in the basis, or None if outside the span.
        The flattened coordinates hold only the left component when the
        kind derives the right one from it, so a pair whose right component
        breaks that rule is outside the span."""
        if _pair(self.kind, bm.left, bm.right) != bm:
            return None
        return express_in_rref_rows(self.basis_matrix, self.pivots, _flatten(self.kind, bm))

    def to_json(self) -> dict:
        f = self.target.field
        return {
            "kind": self.kind,
            "basis": [{"L": [[f.to_json(x) for x in row] for row in bm.left.rows],
                       "R": [[f.to_json(x) for x in row] for row in bm.right.rows]}
                      for bm in self.maps],
            "tensor": [[[f.to_json(x) for x in v] for v in plane] for plane in self.tensor],
            "action": self.action_pair().to_json(),
        }


def _same_json(x, y) -> bool:
    """x == y with every node of the same type: JSON true or 1.0 is not 1."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(_same_json(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(map(_same_json, x, y))
    return x == y


def actor_from_json(obj) -> ActorAlgebra:
    """The actor a document describes, accepted only when the document is
    the one the program emits for its kind and target algebra action.A:
    to_json, with or without the dim key that `construct` adds.  Nothing in
    it is taken on trust; the candidate is rebuilt from action.A."""
    if not isinstance(obj, dict) or not isinstance(obj.get("action"), dict) \
            or "A" not in obj["action"]:
        raise InputError("actor JSON action must contain the target algebra under 'A'")
    actor = construct(obj.get("kind"), algebra_from_json(obj["action"]["A"]))
    doc = actor.to_json()
    if not (_same_json(obj, doc) or _same_json(obj, {**doc, "dim": actor.dim})):
        raise InputError(f"not the {actor.kind} actor document of its target algebra")
    return actor


# ---------------------------------------------------------------------------
# constraint assembly
#
# Each ternary identity row of the source suite, with b in one slot, is one
# equation at (e_i, e_j), the other two labels in increasing order.  b at a
# position of a product term makes it one of six maps, p and q the labels at
# the other two positions in order: in (u*v)*w, b at u gives L(p)q, at v
# R(p)q and at w R(pq); in u*(v*w), L(pq), pL(q) and pR(q).  Under a _FOLLOW
# rule R = sL, R terms join the L block with sign s and b takes slot 0 only:
# the other slots cut out the same space (tests/test_constructions.py).
#
# Unknown layout: vec(L) row-major, then vec(R) row-major when the kind has
# an independent right component.  Matrix convention: map(e_c) = sum_r
# M[r][c] e_r, so M.col(c) is the image of e_c.  Each term is one einsum of
# the integer tensor with the identity I into R[i, j, m, r, c], the
# coefficient of M[r][c] in the term read at coordinate m.  _SLOT_TERMS maps
# (shape, b's position) to the component and the inputs (tensor's, I's).
_SLOT_TERMS = {("L", 0): ("L", "rqm,pc"), ("L", 1): ("R", "rqm,pc"), ("L", 2): ("R", "pqc,mr"),
               ("R", 0): ("L", "pqc,mr"), ("R", 1): ("L", "prm,qc"), ("R", 2): ("R", "prm,qc")}


def _assemble(A: Algebra, kind: str):
    """Constraint rows: for each (i, j, m), one row per equation, as Python
    ints.  Over Q a row is lam times its value, lam the lcm of the tensor's
    denominators, which keeps the nullspace; over GF(p) it is reduced mod p."""
    n = A.dim
    spec = KIND_TABLE[kind]
    follow = _FOLLOW.get(spec.right)
    eqs = [(lhs + [(-s, shape, perm) for s, shape, perm in rhs], slot)
           for tag in SUITES[spec.source] for _, lhs, rhs in IDENTITIES[tag]
           if lhs[0][1] != "T"  # x*y = s y*x is the _FOLLOW rule
           for slot in ((0,) if follow else (0, 1, 2))]
    c = _integer_tensor(A)
    eye = np.eye(n, dtype=c.dtype)
    blocks = 1 if follow else 2
    rows = np.zeros((n, n, n, len(eqs), blocks, n, n), dtype=c.dtype)
    for e, (terms, slot) in enumerate(eqs):
        label = dict(zip(sorted({0, 1, 2} - {slot}), "ij"))
        for sign, shape, perm in terms:
            at = perm.index(slot)
            comp, inputs = _SLOT_TERMS[shape, at]
            p, q = (label[x] for k, x in enumerate(perm) if k != at)
            if comp == "R" and follow:
                comp, sign = "L", sign * follow
            block = rows[:, :, :, e, "LR".index(comp)]  # a view: += writes rows
            block += sign * np.einsum(inputs.replace("p", p).replace("q", q) + "->ijmrc",
                                      c, eye)
    return python_ints(rows.reshape(n ** 3 * len(eqs), blocks * n * n), A.field.p)


def _derivation_rows(A: Algebra):
    return _assemble(A, "der")


def _bimultiplier_rows(A: Algebra):
    return _assemble(A, "bim")


def _biderivation_rows(A: Algebra):
    return _assemble(A, "bider1")


def _multiplier_rows(A: Algebra):
    return _assemble(A, "mult")


def _unflatten(f, n, flat) -> Matrix:
    return Matrix(f, tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n)))


# the products compared by the two existence conditions:
# (details key, label, lhs, rhs)
_CONDITIONS = {
    1: ("bider_dim", "[phi,[a,phi']] = -[phi,[phi',a]]", "aLbR", "-aLbL"),
    2: ("bim_dim", "f*(a*f') = (f*a)*f'", "aLbR", "bRaL"),
}

# the most products summed into one entry of anything compared below
_CLOSURE_TERMS = max(
    [len(_signed(t)) for k in KIND_TABLE.values() for t in (k.bracket, k.right)]
    + [len(_signed(lhs)) + len(_signed(rhs)) for _, _, lhs, rhs in _CONDITIONS.values()])


def _integer_pairs(kind: str, basis_matrix: Matrix, n: int):
    """lam and lam times the basis pairs as an integer (m, k, n, n) array: k
    is 1 (left components) or 2 (left, right) as in the flattened layout.
    The dtype covers the closure check, the largest value computed from it:
    P[:, pivots] @ (lam * basis), each P entry a sum of _CLOSURE_TERMS * n
    products."""
    m = basis_matrix.nrows
    k = 1 if KIND_TABLE[kind].right in _FOLLOW else 2
    return integer_array(basis_matrix.field, basis_matrix.rows, (m, k, n, n),
                         lambda big: (m + 1) * _CLOSURE_TERMS * n * big ** 3)


def _pair_products(b: np.ndarray, text: str, s: int) -> np.ndarray:
    """text, a signed sum of products such as "aLbL - bLaL", at a = basis
    pair s and b = every basis pair t, from the integer pairs b of
    _integer_pairs: an (m, n, n) array, lam^2 times the value."""
    out = 0
    for sign, term in _signed(text):
        x, y = (b[s if tok[0] == "a" else slice(None), "LR".index(tok[1])]
                for tok in (term[:2], term[2:]))
        out = out + x @ y if sign > 0 else out - x @ y
    return out


def _scalars(f, den: int, ints, memo: dict) -> Vector:
    """The field scalars ints / den, ints Python ints: over GF(p), where den
    is 1, the ints themselves; over Q, Fractions, each made once."""
    if f.p is not None:
        return tuple(ints)
    return tuple(memo[x] if x in memo else memo.setdefault(x, Fraction(x, den))
                 for x in ints)


def _build_actor(kind: str, A: Algebra, constraint_rows) -> ActorAlgebra:
    f, n = A.field, A.dim
    nn = n * n
    null = Matrix.from_rows(f, constraint_rows).nullspace()
    basis_matrix, pivots = null.rref()
    basis_matrix = Matrix(f, basis_matrix.rows[: len(pivots)])
    maps = tuple(_pair(kind, *(_unflatten(f, n, row[k:k + nn])
                               for k in range(0, len(row), nn)))
                 for row in basis_matrix.rows)
    m = len(maps)
    pairs = _integer_pairs(kind, basis_matrix, n)
    lam, b = pairs
    flat = b.reshape(m, b.shape[1] * nn)
    spec = KIND_TABLE[kind]
    texts = (spec.bracket,) if spec.right in _FOLLOW else (spec.bracket, spec.right)
    # the pairs' rung holds every coordinate, so exact_dtype holds them all
    consts = np.zeros((m, m, m), exact_dtype(f.p, b.dtype))
    for s in range(m):
        prod = np.stack([_pair_products(b, text, s) for text in texts], axis=1)
        prod = prod.reshape(flat.shape)
        coords = prod[:, list(pivots)]
        escaped = nonzero_mod(lam * prod - coords @ flat, f.p).any(axis=1)
        if escaped.any():
            raise ClosureError(f"{kind}: product of basis pairs {s} and "
                               f"{int(escaped.argmax())} leaves the span")
        consts[s] = exact_ints(coords, f.p)
    den, memo = lam * lam, {}
    tensor = tuple(tuple(_scalars(f, den, row, memo) for row in plane.tolist())
                   for plane in consts)
    return ActorAlgebra(kind, A, maps, tensor, basis_matrix, pivots, pairs, (den, consts))


def semidirect_tensor(actor: ActorAlgebra) -> np.ndarray:
    """The integer tensor of the semidirect product along the candidate's
    action: algebra._integer_tensor(actions.semidirect(actor.action_pair())),
    values and dtype, placed from four integer blocks without reading a
    scalar of the product.  With m = actor.dim, the candidate's basis first:

        c[:m, :m, :m]      the structure constants
        c[b, m + j, m + r] L_b[r][j], the left components
        c[m + i, b, m + r] R_b[r][i], the right ones (+-L under _FOLLOW,
                           mod p over GF(p))
        c[m:, m:, m:]      the target's own tensor

    Over Q each block is an integer array with its own lam, the lcm of its
    entries' denominators: for the constants den / gcd(den, every entry),
    for the pairs their lam, for the target its own.  Each block is scaled
    to the lcm of the three, the lam of the whole product.  The dtype is the
    rung of algebra.suite_bound at the largest scaled entry, as integer_array
    picks it; each block is cast to it before it is scaled, which stays
    exact on every rung because the bound covers every entry."""
    A = actor.target
    f, n, m = A.field, A.dim, actor.dim
    den, consts = actor.constants
    lam_pairs, pairs = actor.pairs
    lam_a, ints_a = integer_array(f, A.tensor, (n, n, n), suite_bound(n))
    # gcd(den, every entry), the gcd of none being 0; den is 1 over GF(p)
    g = math.gcd(den, int(np.gcd.reduce(consts, axis=None))) if den > 1 else 1
    left = pairs[:, 0]
    sign = _FOLLOW.get(KIND_TABLE[actor.kind].right)
    right = pairs[:, 1] if sign is None else left if sign > 0 else -left
    lo, hi = slice(m), slice(m, None)
    blocks = [((lo, lo, lo), consts if g == 1 else consts // g, den // g),
              ((lo, hi, hi), exact_ints(left).transpose(0, 2, 1), lam_pairs),
              ((hi, lo, hi), exact_ints(right, f.p).transpose(2, 0, 1), lam_pairs),
              ((hi, hi, hi), exact_ints(ints_a), lam_a)]
    lam = math.lcm(*(lam_block for _, _, lam_block in blocks))
    tops = [magnitude(arr) for _, arr, _ in blocks]
    big = max(top * (lam // lam_block) for top, (_, _, lam_block) in zip(tops, blocks))
    out = np.zeros((m + n,) * 3, rung(suite_bound(m + n)(big)))
    for top, (where, arr, lam_block) in zip(tops, blocks):
        view = out[where]
        view[...] = arr
        if top and lam != lam_block:
            view *= lam // lam_block
    return out


def _construct(kind: str, A: Algebra, rows) -> ActorAlgebra:
    """The candidate of this kind for A, which must pass the identity suite
    of the kind's source category; rows(A) assembles its constraints."""
    spec = KIND_TABLE[kind]
    rep = identity_suite(A, spec.source)
    if not rep.passed:
        raise InputError(f"{spec.name} requires a {spec.source} algebra; "
                         f"identity {rep.label!r} fails at {rep.witness}")
    return _build_actor(kind, A, rows(A))


def derivations(A: Algebra) -> ActorAlgebra:
    """All D with D[x,y] = [D(x),y] + [x,D(y)], bracket = commutator."""
    return _construct("der", A, _derivation_rows)


def bimultipliers(A: Algebra) -> ActorAlgebra:
    """All pairs (L,R) with L(xy)=L(x)y, R(xy)=xR(y), xL(y)=R(x)y."""
    return _construct("bim", A, _bimultiplier_rows)


def biderivations(A: Algebra, variant: int = 1) -> ActorAlgebra:
    """All pairs (L,R) satisfying the Leibniz identity with b in each slot.

    The solution space does not depend on the variant; the bracket does.
    Variant 1 composes through the left components, variant 2 through the
    right ones; they agree exactly when the Condition-1 identity holds.
    """
    if variant not in (1, 2):
        raise InputError("variant must be 1 or 2")
    return _construct(f"bider{variant}", A, _biderivation_rows)


def multipliers(A: Algebra) -> ActorAlgebra:
    """All f with f(xy) = f(x)y on a commutative associative algebra."""
    return _construct("mult", A, _multiplier_rows)


def construct(kind: str, A: Algebra) -> ActorAlgebra:
    """The candidate of a KIND_TABLE kind for A."""
    if kind not in KINDS:
        raise InputError(f"unknown actor kind {kind!r}")
    if kind == "zero":
        return zero_actor(A)
    rows = {"der": _derivation_rows, "bim": _bimultiplier_rows, "mult": _multiplier_rows,
            "bider1": _biderivation_rows, "bider2": _biderivation_rows}[kind]
    return _construct(kind, A, rows)


def zero_actor(A: Algebra) -> ActorAlgebra:
    """The empty candidate acting trivially; the actor of any zero-product
    algebra in the module category."""
    f = A.field
    basis_matrix = Matrix(f, ())
    pairs = _integer_pairs("zero", basis_matrix, A.dim)
    return ActorAlgebra("zero", A, (), (), basis_matrix, (),
                        pairs, (1, np.zeros((0, 0, 0), exact_dtype(f.p, pairs[1].dtype))))


# ---------------------------------------------------------------------------
# the canonical map and its crossed-module conditions


def canonical_d(A: Algebra, actor: ActorAlgebra) -> Matrix:
    """Coordinates of each basis element's multiplication pair in the actor.

    Row i holds the actor coordinates of (e_i * -, - * e_i).  A pair outside
    the actor's span means the candidate does not contain its own inner
    multiplications, which no valid input should produce; that raises
    ConstructionError rather than returning a partial answer.
    """
    if actor.target is not A and actor.target.tensor != A.tensor:
        raise InputError("actor was built for a different algebra")
    f, n = A.field, A.dim
    rows = []
    for i in range(n):
        coords = actor.member_coords(BiMap(A.left_mult_matrix(i), A.right_mult_matrix(i)))
        if coords is None:
            raise ConstructionError(
                f"multiplication pair of basis element {i} is outside the "
                f"{actor.kind} span")
        rows.append(coords)
    return Matrix.from_rows(f, rows)


def crossed_module_check(d: Matrix, act: ActionPair) -> Report:
    """Crossed-module conditions for a linear d: A -> B along an action.

    Rows of d are images in B coordinates.  The two group-shaped conditions
    hold automatically when addition is commutative and the dot action is
    trivial, and are reported as such; the two multiplicative conditions are
    checked on basis pairs.
    """
    A, B = act.A, act.B
    f = A.field
    if d.nrows != A.dim or (d.rows and len(d.rows[0]) != B.dim):
        raise InputError("d must be a dim(A) x dim(B) matrix of images")

    dt = Matrix(f, tuple(zip(*d.rows)))  # dt.apply(v) is d(v) for v in A coordinates

    auto = "auto-pass: addition commutes and the dot action is trivial"
    details = [
        {"condition": "i", "name": "d respects the dot action", "status": "pass", "note": auto},
        {"condition": "ii", "name": "dot action along d is conjugation", "status": "pass",
         "note": auto},
    ]
    for i in range(A.dim):
        di = d.rows[i] if A.dim else ()
        for j in range(A.dim):
            ej = basis_vector(f, A.dim, j)
            lhs = act.act_left(di, ej)
            if lhs != A.tensor[i][j]:
                return Report(False, label="d(a)*a' = a*a'", witness=(i, j),
                              lhs=lhs, rhs=A.tensor[i][j], details=details)
            rhs = act.act_right(ej, di)
            if rhs != A.tensor[j][i]:
                return Report(False, label="a'*d(a) = a'*a", witness=(j, i),
                              lhs=rhs, rhs=A.tensor[j][i], details=details)
    details.append({"condition": "iii", "name": "d(a)*a' = a*a' and a'*d(a) = a'*a",
                    "status": "pass"})
    for b in range(B.dim):
        eb = basis_vector(f, B.dim, b)
        for i in range(A.dim):
            lhs = dt.apply(act.left[b][i])
            rhs = B.multiply(eb, d.rows[i])
            if lhs != rhs:
                return Report(False, label="d(b*a) = b*d(a)", witness=(b, i),
                              lhs=lhs, rhs=rhs, details=details)
            lhs = dt.apply(act.right[i][b])
            rhs = B.multiply(d.rows[i], eb)
            if lhs != rhs:
                return Report(False, label="d(a*b) = d(a)*b", witness=(i, b),
                              lhs=lhs, rhs=rhs, details=details)
    details.append({"condition": "iv", "name": "d(b*a) = b*d(a) and d(a*b) = d(a)*b",
                    "status": "pass"})
    return Report(True, details=details)


# ---------------------------------------------------------------------------
# the two effective existence conditions
#
# Both conditions quantify over every algebra that could ever act on A.  The
# universality of the general actor lets a finite check stand in for that
# quantifier: every derived action factors through the candidate built above,
# so checking the identity on the candidate's basis pairs decides it for all
# actions at once.  This reduction is the whole point of the module.


def _condition_check(which: int, actor: ActorAlgebra) -> Report:
    """Condition `which` on every pair (s, t) of basis pairs; the witness is
    the first (s, t, col) at which the two sides differ in column col."""
    key, label, lhs_text, rhs_text = _CONDITIONS[which]
    details = [{key: actor.dim}]
    f = actor.target.field
    lam, b = actor.pairs
    for s in range(actor.dim):
        lhs = _pair_products(b, lhs_text, s)
        rhs = _pair_products(b, rhs_text, s)
        differs = nonzero_mod(lhs - rhs, f.p).any(axis=1)  # (t, col): col differs somewhere
        if differs.any():
            t, col = (int(x) for x in np.unravel_index(differs.argmax(), differs.shape))
            memo = {}
            return Report(False, label=label, witness=(s, t, col),
                          lhs=_scalars(f, lam * lam, python_ints(lhs[t, :, col], f.p), memo),
                          rhs=_scalars(f, lam * lam, python_ints(rhs[t, :, col], f.p), memo),
                          details=details)
    return Report(True, details=details)


def condition1_check(A: Algebra, bider: ActorAlgebra | None = None) -> Report:
    """[phi,[a,phi']] = -[phi,[phi',a]] over the biderivation basis."""
    return _condition_check(1, biderivations(A, 1) if bider is None else bider)


def condition2_check(A: Algebra, bim: ActorAlgebra | None = None) -> Report:
    """(f*a)*f' = f*(a*f') over the bimultiplier basis."""
    return _condition_check(2, bimultipliers(A) if bim is None else bim)


def sufficient_conditions(A: Algebra) -> dict:
    """Two checkable properties, either of which forces the conditions above:
    trivial annihilator, or the products spanning the whole space."""
    return {
        "ann_zero": annihilator(A).dim == 0,
        "perfect": derived_subspace(A).dim == A.dim,
    }
