"""Actor candidates as algebras of matrix pairs cut out by linear constraints.

Each candidate kind is one row of KIND_TABLE: the category of its own
product, the source category whose identities cut it out, its bracket, a
replacement word of the words module, how the right component follows from
the left one (its negative, equal, or independent, with a word of its
own), and the function assembling its constraint rows.  A pair (L, R) acts
on A by b*x = L(x) and x*b = R(x).

The constraints are the source's identities, algebra.IDENTITIES, with b in
one slot.  The candidate is their nullspace over the entries of the
independent components; its basis is canonicalized by RREF over the
flattened coordinates (row-major, left matrix first), so identical inputs
give byte-identical actors.

Constraint rows are assembled in integers by algebra._np_sum, the suites'
signed sum of terms, on P x A, P the space of all pairs, placed from
A.integer_tensor and the unit pairs: a row is linear in the acting pair, so
its coefficient of an unknown is its value at the pair whose flattened
coordinates are that unknown's unit vector.
Over Q the rows are lam times their values, lam the lcm of the tensor's
denominators, which keeps the nullspace; over GF(p) they are reduced mod p.
The array becomes the constraint Matrix through Matrix.from_ints, which
keeps it, so the elimination starts from it and never from Python rows.

The candidate is its span: a candidate holds its kind, its target and the
nullspace's RREF Matrix, and nothing else, so two candidates compare, hash
and print by those three.  Every other form of it is a view of the span,
built on first read and kept (functools.cached_property): the integer
pairs, the structure constants, maps and tensor, and the semidirect blocks.
The structure constants are built under a closure certificate (_closure):
the product of any two basis pairs is re-expressed in the basis, and a pair
that escapes the span raises ClosureError instead of silently producing
garbage structure constants.  Their readers are the candidate's tensor, so
construct's and xmod-check's documents, as_algebra and
bider_variants_agree, then semidirect_tensor, and the semidirect blocks of
a verdict whose suite reads the B x B block (_reads_bb), a bider or mult
one.  A der or bim verdict reads no product of two candidate labels, so it
builds no constants and runs no certificate: those candidates are closed by
theorem (KIND_TABLE).
Products are taken in integers: the basis is multiplied by lam, the lcm of
its denominators (1 over GF(p)), so a product is lam^2 times its value.  As
the basis is in RREF, the coordinates of a product are its entries at the
pivot columns, and linalg.outside_span, the tall eliminations' certificate,
says which products leave the span of lam * basis over lam.

The products are the suite's terms: a bracket's word, as words.word_terms
writes it, is summed by algebra._np_sum on the witnesses (s, t, col) of the
pairs' Blocks, the word's slots y, z and x, on the same ba and ab blocks
the assembly and the semidirect product place (_pair_blocks).  The closure
takes a few s at a time against all t, as many as algebra.SWEEP_CELLS cells
of products hold, m times the flattened width per s, and at least one, in
order of s, so the first escaping pair is the first in s-major order, as
pair by pair.

The span is a subspace of the flattened coordinates, whose rows are its
basis, whose pivots give coordinates and membership, and whose integer
array over its denominator the pairs are read from.  The zero actor's span
is empty and keeps its width n^2 in its shape; its constants are the empty
ones _closure gives.  The views: pairs, lam and lam times the basis pairs
as an integer array; constants, the structure constants times lam^2 as
linalg.exact_ints gives them (reduced mod p over GF(p)); maps, the basis
pairs as Matrices over lam; and tensor, the constants over lam^2.
action_pair's left and right tensors are the pairs' columns, and
as_algebra's tensor is tensor.  semidirect_tensor places the pairs and the
constants, with the target's integer_tensor, as the four algebra.Blocks of
the semidirect product's integer tensor, and states once, as Blocks.closed,
which blocks of witnesses hold on every candidate of the kind: per tag of
the source suite, the all-A block, every block with one candidate label,
and those with more that KIND_TABLE proves, with each proof on its row
(_closed_blocks).  ActorAlgebra.semidirect_blocks builds them once per
candidate, with the constants only where an open block reads them.  The
pipeline's semidirect suite reads those blocks, never a dense (N, N, N)
array, evaluates none of the closed ones, so a Lie verdict evaluates no
block at all, and reads its witness sides off the same blocks: no verdict
builds a field scalar of the candidate, its action or the product.
Conditions 1 and 2 are identity rows too, on the witnesses (s, t, col) of
the same product's B x B x A block (_CONDITIONS), read by the suite's sweep
and witness reader, algebra._row_failure, with every other block closed.
They read no product of two candidate labels, so their blocks hold no
constants.  Condition 2 of a commutative A reads the semidirect blocks of
an ordinary bim candidate, whose span _commutative_bimultipliers reads off
the multipliers, with no assembly and no closure.

factor_through_actor expresses an action on the candidate's target in the
candidate's basis, and is the one place that checks the action's algebra
is that target, field included.  The canonical map d: A -> candidate,
canonical_d, is A's conjugation action factored this way.

Both the assembly and the products run on the rungs of linalg.rung:
float64 while the caller's bound on every value computed stays below 2^53,
so each matmul is an exact BLAS dgemm, then int64, then Python ints.  The
module keeps no dtype or residue code of its own: membership is tested by
linalg.outside_span, residues taken by linalg.exact_ints, and every value
handed back to exact code leaves numpy as Python ints, never as floats: the
constraint rows through Matrix.from_ints, the structure constants and the
action through linalg.scalar_tuples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import algebra, words
from .actions import ActionPair, conjugation_action
from .algebra import (
    IDENTITIES,
    SUITES,
    Algebra,
    Blocks,
    InputError,
    _difference,
    _index_slices,
    _np_sum,
    _row_failure,
    algebra_from_json,
    annihilator,
    derived_subspace,
    identity_suite,
    suite_bound,
)
from .linalg import (
    Matrix,
    Vector,
    basis_vector,
    exact_dtype,
    exact_ints,
    lowest_terms,
    magnitude,
    on_rung,
    outside_span,
    rung,
    scalar_tuples,
)
from .reporting import Report
from .words import Word, word_terms


class ConstructionError(RuntimeError):
    """A construction step failed in a way that signals a soundness bug."""


class ClosureError(ConstructionError):
    """A product of basis pairs left the candidate's own span."""


class Kind(NamedTuple):
    category: str  # category tag of the candidate's own product
    source: str  # category whose identities, one argument acting, cut it out
    name: str  # what the candidate is called in a refusal
    bracket: Word  # left component of [a, b], a and b the word's y and z
    right: str | Word  # "neg" (minus the left one), "same", or the word of
    #                    an independent right component
    rows: str = ""  # the module function assembling its constraint rows
    # per identity tag of the source suite, the blocks of the semidirect
    # product with two or more candidate labels that hold on every
    # candidate, each named by the parts of its labels ("BAB" is B x A x B),
    # with the proof in a comment on its row: _closed_blocks closes them
    closed: Mapping[str, tuple] = MappingProxyType({})


# Every proof below rests on the candidate being closed under its bracket:
# the product of two basis pairs is the pair the bracket gives, and its
# coordinates in the independent basis are unique, so the structure
# constants are those of a subalgebra of the ambient algebra the bracket is
# taken in.  For der and bim closure is a theorem, proved on their rows, so
# their verdicts, which read no product of two candidates, build no
# constants (_reads_bb); for every kind the certificate checks closure
# whenever the constants are built (_closure).  In the semidirect product
# b*a = L_b(a) and a*b = R_b(a) for b in B, a in A.  The monomials of a
# word read as products of pairs in words.word_terms.
KIND_TABLE = {
    # [D, D'] = DD' - D'D, the word's aLbL + bRaL under R = -L, is a
    # derivation: DD'(xy) = DD'(x)y + D'(x)D(y) + D(x)D'(y) + xDD'(y), and
    # the middle terms cancel in DD' - D'D.  The commutator of any
    # associative algebra, here End(A), is anticommutative and satisfies
    # Jacobi, in every characteristic, which is BB and BBB.  Jacobi is
    # cyclic, so BBA, BAB and ABB are each its sum at some (D, D', a):
    # with R = -L that is (DD' - D'D)a - DD'a + D'Da = 0.  So no block of
    # a Lie verdict runs
    "der": Kind("lie", "lie", "derivations", words.LIE_W1, "neg", "_derivation_rows",
                {"anticommutativity": ("BB",), "jacobi": ("BBB", "BBA", "BAB", "ABB")}),
    # (L, R)(L', R') = (LL', R'R) is a bimultiplier: LL'(xy) = LL'(x)y,
    # R'R(xy) = xR'R(y), and xLL'(y) = R(x)L'(y) = R'R(x)y.  It is
    # composition in End(A) x End(A)^op, which is associative: BBB.  BBA
    # is (ff')a = L L'a = f(f'a) and ABB is (af)f' = R'Ra = a(ff').  BAB,
    # (fa)f' = f(af'), is condition 2 and runs
    "bim": Kind("associative", "associative", "bimultipliers", words.ASSOCIATIVE_W1,
                words.ASSOCIATIVE_W2, "_bimultiplier_rows",
                {"associativity": ("BBB", "BBA", "ABB")}),
    # no block of the Leibniz identity with two biderivation labels is
    # proved for either bracket: the suite runs them
    "bider1": Kind("leibniz", "leibniz", "biderivations", words.LEIBNIZ_W1, words.LEIBNIZ_W2,
                   "_biderivation_rows"),
    "bider2": Kind("leibniz", "leibniz", "biderivations", words.LEIBNIZ_W1_VARIANT,
                   words.LEIBNIZ_W2, "_biderivation_rows"),
    # (L, L)(L', L') = (LL', LL') is composition in End(A), associative:
    # BBB, and BBA as for bim.  BAB and ABB of associativity both read
    # f'(f(a)) = f(f'(a)), and so does commutativity's BB: the multipliers
    # need not commute, so those run
    "mult": Kind("associative", "commutative", "multipliers", words.ASSOCIATIVE_W1, "same",
                 "_multiplier_rows", {"associativity": ("BBB", "BBA")}),
    "zero": Kind("module", "module", "the zero actor", Word("W1", ()), "same"),
}

KINDS = tuple(KIND_TABLE)

# right-component rules, as the sign s of R = sL: the binary row
# x*y = s y*x of the source suite with b at x
_FOLLOW = {"neg": -1, "same": 1}


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
    """The candidate of a kind for its target: its span, the RREF basis over
    the flattened coordinates, and the views of it each built on first read.
    Equality, hash and repr read the kind, the target and the span only."""

    kind: str
    target: Algebra
    span: Matrix

    @property
    def dim(self) -> int:
        return self.span.nrows

    @functools.cached_property
    def pairs(self) -> tuple[int, np.ndarray]:
        """lam and lam times the basis pairs as an integer (m, k, n, n) array:
        k is 1 (left components) or 2 (left, right) as in the flattened
        layout.  The dtype covers the closure check, the largest value
        computed from it: linalg.outside_span of the products P against
        lam * basis over lam, each P entry a sum of _CLOSURE_TERMS * n
        products."""
        m, n = self.dim, self.target.dim
        k = 1 if KIND_TABLE[self.kind].right in _FOLLOW else 2
        lam, ints = self.span.scaled()
        return lam, on_rung(ints.reshape(m, k, n, n),
                            lambda big: (m + 1) * _CLOSURE_TERMS * n * big ** 3)

    @functools.cached_property
    def constants(self) -> tuple[int, np.ndarray]:
        """(den, den * tensor) as an integer (dim, dim, dim) array of
        linalg.exact_dtype: over GF(p) den is 1 and the dtype the narrowest
        unsigned one holding p - 1, over Q int64, or object with the pairs;
        built under its closure certificate (_closure)."""
        return _closure(self)

    @functools.cached_property
    def maps(self) -> tuple:
        """The basis pairs as BiMaps of Matrices over lam."""
        f, (lam, ints) = self.target.field, self.pairs
        ba, ab = _pair_blocks(self.kind, exact_ints(ints), f.p)
        return tuple(BiMap(Matrix.from_quotient(f, left, lam), Matrix.from_quotient(f, right, lam))
                     for left, right in zip(ba.transpose(0, 2, 1), ab.transpose(1, 2, 0)))

    @functools.cached_property
    def tensor(self) -> tuple:
        """The structure constants of the bracket in the basis."""
        return scalar_tuples(self.target.field, *self.constants)

    @functools.cached_property
    def semidirect_blocks(self) -> tuple[int, Blocks]:
        """semidirect_tensor(self) as the semidirect suite and the condition
        checks read it, built once: its bb has the shape (m, 0, 0) unless
        an open block of the kind reads it (_reads_bb), so a der or bim
        verdict builds no structure constants.  Shared, so read-only."""
        lam, blocks = _place_blocks(self, self.constants if _reads_bb(self.kind) else None)
        for arr in blocks[:4]:
            arr.flags.writeable = False
        return lam, blocks

    def as_algebra(self) -> Algebra:
        names = tuple(f"{self.kind}{i}" for i in range(self.dim))
        return Algebra(self.target.field, self.dim, names, lambda: self.tensor,
                       KIND_TABLE[self.kind].category)

    def action_pair(self) -> ActionPair:
        """The action this candidate induces on its target: left by the left
        components, right by the right components.  left[b][j] is column j
        of L_b and right[i][b] column i of R_b: the pairs' ba and ab blocks,
        made field scalars on first read."""
        f, (lam, ints) = self.target.field, self.pairs
        ba, ab = _pair_blocks(self.kind, exact_ints(ints), f.p)
        return ActionPair(self.as_algebra(), self.target, lambda: scalar_tuples(f, lam, ba),
                          lambda: scalar_tuples(f, lam, ab))

    def member_coords(self, bm: BiMap) -> Vector | None:
        """Coordinates of a pair in the basis, or None if outside the span.
        The flattened coordinates hold only the left component when the
        kind derives the right one from it, so a pair whose right component
        breaks that rule is outside the span."""
        if _pair(self.kind, bm.left, bm.right) != bm:
            return None
        return self.span.coords(_flatten(self.kind, bm))

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
# equation at (e_i, e_j), the other two labels in increasing order.  Under a
# _FOLLOW rule R = sL, b takes slot 0 only: the other slots cut out the same
# space (tests/test_constructions.py).
#
# Unknown layout: vec(L) row-major, then vec(R) row-major when the kind has
# an independent right component.  Matrix convention: map(e_c) = sum_r
# M[r][c] e_r, so M.col(c) is the image of e_c.


def _assemble(A: Algebra, kind: str) -> Matrix:
    """The constraint matrix, built by Matrix.from_ints from the integer
    array: for each (i, j, m), one row per equation.  Over Q a row is lam
    times its value, lam the lcm of the tensor's denominators, which keeps
    the nullspace; over GF(p) it is reduced mod p."""
    n = A.dim
    spec = KIND_TABLE[kind]
    follow = _FOLLOW.get(spec.right)
    eqs = [(_difference(lhs, rhs), slot)
           for tag in SUITES[spec.source] for _, lhs, rhs in IDENTITIES[tag]
           if lhs[0][1] != "T"  # x*y = s y*x is the _FOLLOW rule
           for slot in ((0,) if follow else (0, 1, 2))]
    c = A.integer_tensor[1]
    width = (1 if follow else 2) * n * n
    if n == 0:  # _np_term reads no zero-size block
        return Matrix.from_ints(A.field, np.zeros((0, 0), c.dtype))
    # pair b's flattened coordinates are the unit vector e_b; no witness has
    # two indices in P, so bb is never read
    pairs = np.eye(width, dtype=c.dtype).reshape(width, -1, n, n)
    t = Blocks(np.zeros((width, 0, 0), c.dtype), *_pair_blocks(kind, pairs), c)
    rows = []
    for terms, slot in eqs:
        parts = tuple(int(x != slot) for x in range(3))
        value = _np_sum(t, terms, parts, slice(None))
        rows.append(np.moveaxis(value, slot, 3))  # [i, j, m, b]
    return Matrix.from_ints(A.field, np.stack(rows, axis=3).reshape(-1, width))


def _derivation_rows(A: Algebra):
    return _assemble(A, "der")


def _bimultiplier_rows(A: Algebra):
    return _assemble(A, "bim")


def _biderivation_rows(A: Algebra):
    return _assemble(A, "bider1")


def _multiplier_rows(A: Algebra):
    return _assemble(A, "mult")


# the most products, counted with their coefficients, summed into one entry
# of a bracket
_CLOSURE_TERMS = max(sum(abs(c) for c, _, _ in word_terms(w)) for k in KIND_TABLE.values()
                     for w in (k.bracket, k.right) if isinstance(w, Word))


def _pair_blocks(kind: str, ints: np.ndarray, p=None) -> tuple[np.ndarray, np.ndarray]:
    """The ba and ab blocks of algebra.Blocks that integer pairs ints, an
    (m, k, n, n) array in the flattened layout, place: ba[b, j, r] = L_b[r][j]
    and ab[i, b, r] = R_b[r][i], R = +-L under the kind's _FOLLOW rule.  In
    the dtype of ints, views of it where the rule allows, and ab reduced
    mod p when p is set, ints then exact integers."""
    sign = _FOLLOW.get(KIND_TABLE[kind].right)
    left = ints[:, 0]
    right = ints[:, 1] if sign is None else left if sign > 0 else -left
    if p is not None:
        right = exact_ints(right, p)
    return left.transpose(0, 2, 1), right.transpose(2, 0, 1)


def _build_actor(kind: str, A: Algebra, constraints: Matrix) -> ActorAlgebra:
    """The candidate cut out by the constraint matrix: its nullspace."""
    return ActorAlgebra(kind, A, constraints.nullspace())


def _closure(actor: ActorAlgebra) -> tuple:
    """(lam^2, lam^2 times the structure constants) of the candidate, from
    its span and integer pairs, under its closure certificate: each product
    of two basis pairs is re-expressed in the basis, and the first, in
    s-major order, that leaves the span raises ClosureError.  An empty span
    gives (1, an empty (0, 0, 0) array)."""
    f, span = actor.target.field, actor.span
    spec = KIND_TABLE[actor.kind]
    brackets = [word_terms(w) for w in ((spec.bracket,) if spec.right in _FOLLOW
                                        else (spec.bracket, spec.right))]
    m, width = span.nrows, span.ncols
    lam, b = actor.pairs
    # no term reads bb
    blocks = Blocks(np.zeros((m, 0, 0), b.dtype), *_pair_blocks(actor.kind, b))
    # the pairs' rung holds every coordinate, so exact_dtype holds them all
    consts = np.zeros((m, m, m), exact_dtype(f.p, b.dtype))
    for rows in _index_slices(m, m * width, algebra.SWEEP_CELLS):
        # row s * m + t: the product of pairs rows.start + s and t, each
        # bracket at a = pair s, b = pair t as [s, t, col, r], made [s, t, r, col]
        prod = np.stack([_np_sum(blocks, terms, (0, 0, 1), rows).transpose(0, 1, 3, 2)
                         for terms in brackets], axis=2)
        prod = prod.reshape(-1, width)
        coords = prod[:, span.pivots]
        escaped = outside_span(prod, lam, b.reshape(m, width), span.pivots, f.p)
        if escaped.any():
            s, t = divmod(int(escaped.argmax()), m)
            raise ClosureError(f"{actor.kind}: product of basis pairs {rows.start + s} and "
                               f"{t} leaves the span")
        consts[rows] = exact_ints(coords, f.p).reshape(-1, m, m)
    return lam * lam, consts


@functools.cache
def _closed_blocks(kind: str) -> Mapping[str, frozenset]:
    """The blocks of witnesses, as the parts of their labels, that hold on
    the semidirect product along any candidate of this kind, per tag of its
    source suite: the all-A block, as _construct saw the target pass that
    suite; every block with exactly one candidate label, as the
    candidate is the nullspace of those rows (under a _FOLLOW rule, of the
    ternary rows with b in slot 0, which cut out the same space, and the
    rule is the binary row); and the blocks with more that KIND_TABLE's
    closed column proves.  zero_actor checks no suite on its target, so the zero
    kind closes none."""
    spec = KIND_TABLE[kind]
    out = {}
    for tag in SUITES[spec.source] if spec.rows else ():
        proved = {tuple("BA".index(x) for x in word) for word in spec.closed.get(tag, ())}
        # a block for each part of each label of the tag's rows
        out[tag] = frozenset(b for b in np.ndindex((2,) * len(IDENTITIES[tag][0][1][0][2]))
                             if b.count(0) <= 1 or b in proved)
    return MappingProxyType(out)


@functools.cache
def _reads_bb(kind: str) -> bool:
    """Whether the source suite on the semidirect product along a candidate
    of this kind reads its structure constants: some term of a block that
    _closed_blocks leaves open has a factor at Blocks field 0, bb
    (algebra._term_plan).  No term of the _CONDITIONS rows on B x B x A
    has one."""
    closed = _closed_blocks(kind)
    return any(0 in algebra._term_plan(shape, perm, parts, (0,))[0:3:2]
               for tag in SUITES[KIND_TABLE[kind].source] for _, lhs, rhs in IDENTITIES[tag]
               for parts in np.ndindex((2,) * len(lhs[0][2]))
               if parts not in closed.get(tag, ())
               for _, shape, perm in lhs + rhs)


def semidirect_tensor(actor: ActorAlgebra) -> tuple[int, Blocks]:
    """The pair (lam, Blocks) of the semidirect product along the
    candidate's action: actions.semidirect(actor.action_pair())'s
    integer_tensor, values and dtype, cut into its four blocks and placed
    from the candidate's views actor.pairs and actor.constants without
    reading a scalar of the product.  With m = actor.dim, the candidate's
    basis first:

        bb[s, t, u]    the structure constants, actor.constants
        ba[b, j, r]    L_b[r][j], the left components of actor.pairs
        ab[i, b, r]    R_b[r][i], the right ones (+-L under _FOLLOW, mod p
                       over GF(p))
        aa             the target's integer_tensor

    Over Q each block is an integer array with its own lam, the lcm of its
    entries' denominators: for the constants their den in lowest terms
    (linalg.lowest_terms), for the pairs their lam, for the target its own.
    Each block is scaled to the lcm of the three, the lam of the whole
    product.  The dtype is the rung of algebra.suite_bound at the largest
    scaled entry, as for the product's integer_tensor; each block is cast to
    it before it is scaled, which stays exact on every rung because the
    bound covers every entry.  Blocks.closed is _closed_blocks(actor.kind)."""
    return _place_blocks(actor, actor.constants)


def _place_blocks(actor: ActorAlgebra, constants=None) -> tuple[int, Blocks]:
    """semidirect_tensor from the candidate's integer pairs and the given
    constants.  Without constants, bb has the shape (m, 0, 0), as in
    _closure."""
    A, m = actor.target, actor.dim
    f, n = A.field, A.dim
    den, consts = (1, np.zeros((m, 0, 0), np.int64)) if constants is None \
        else lowest_terms(*constants)
    lam_pairs, ints = actor.pairs
    lam_a, ints_a = A.integer_tensor
    ba, ab = _pair_blocks(actor.kind, exact_ints(ints), f.p)
    blocks = [(consts, den), (ba, lam_pairs), (ab, lam_pairs), (exact_ints(ints_a), lam_a)]
    lam = math.lcm(*(lam_block for _, lam_block in blocks))
    tops = [magnitude(arr) for arr, _ in blocks]
    big = max(top * (lam // lam_block) for top, (_, lam_block) in zip(tops, blocks))
    dtype = rung(suite_bound(m + n)(big))
    out = []
    for top, (arr, lam_block) in zip(tops, blocks):
        arr = arr.astype(dtype, order="C")
        if top and lam != lam_block:
            arr *= lam // lam_block
        out.append(arr)
    return lam, Blocks(*out, _closed_blocks(actor.kind))


def _construct(kind: str, A: Algebra, suite: Report | None = None) -> ActorAlgebra:
    """The candidate of this kind for A, which must pass the identity suite
    of the kind's source category.  suite is that suite's Report when the
    caller has run it already, as actor_pipeline has: each category's
    candidate is cut out by the category's own identities, so A's own suite
    is its source suite; otherwise it runs here.  The kind's row assembler
    is looked up by name when the call runs, so a rebound module function
    is the one called."""
    spec = KIND_TABLE[kind]
    if suite is None:
        suite = identity_suite(A, spec.source)
    elif [d["name"] for d in suite.details] != list(SUITES[spec.source]):
        raise ConstructionError(f"{spec.name} needs the {spec.source} suite's report")
    if not suite.passed:
        raise InputError(f"{spec.name} requires a {spec.source} algebra; "
                         f"identity {suite.label!r} fails at {suite.witness}")
    return _build_actor(kind, A, globals()[spec.rows](A))


def derivations(A: Algebra, suite: Report | None = None) -> ActorAlgebra:
    """All D with D[x,y] = [D(x),y] + [x,D(y)], bracket = commutator."""
    return _construct("der", A, suite)


def bimultipliers(A: Algebra, suite: Report | None = None) -> ActorAlgebra:
    """All pairs (L,R) with L(xy)=L(x)y, R(xy)=xR(y), xL(y)=R(x)y."""
    return _construct("bim", A, suite)


def biderivations(A: Algebra, variant: int = 1, suite: Report | None = None) -> ActorAlgebra:
    """All pairs (L,R) satisfying the Leibniz identity with b in each slot.

    The solution space does not depend on the variant; the bracket does.
    Its left component is the replacement word words.LEIBNIZ_W1 in variant
    1 and words.LEIBNIZ_W1_VARIANT, that word rewritten by the Leibniz
    identity, in variant 2; the right one is words.LEIBNIZ_W2 in both.  The
    brackets agree exactly when the Condition-1 identity holds.
    """
    if variant not in (1, 2):
        raise InputError("variant must be 1 or 2")
    return _construct(f"bider{variant}", A, suite)


def multipliers(A: Algebra, suite: Report | None = None) -> ActorAlgebra:
    """All f with f(xy) = f(x)y on a commutative associative algebra."""
    return _construct("mult", A, suite)


def construct(kind: str, A: Algebra) -> ActorAlgebra:
    """The candidate of a KIND_TABLE kind for A."""
    if kind not in KINDS:
        raise InputError(f"unknown actor kind {kind!r}")
    return zero_actor(A) if kind == "zero" else _construct(kind, A)


def zero_actor(A: Algebra) -> ActorAlgebra:
    """The empty candidate acting trivially; the actor of any zero-product
    algebra in the module category."""
    empty = Matrix.from_quotient(A.field, np.zeros((0, A.dim ** 2), np.int64), 1, pivots=())
    return ActorAlgebra("zero", A, empty)


# ---------------------------------------------------------------------------
# the canonical map and its crossed-module conditions


def factor_through_actor(actor: ActorAlgebra, act: ActionPair) -> Report:
    """Express an action of B on the actor's target through the candidate.

    For each basis element of B, its pair of action matrices must lie in the
    candidate's span; the coordinates assemble the unique linear map B ->
    candidate with the same action values.  Uniqueness is automatic because
    candidate elements are their pairs and the basis is independent.  An
    action on any other algebra, or on the same tensor over another field,
    is refused.
    """
    A = actor.target
    if act.A.field != A.field or act.A.tensor != A.tensor:
        raise InputError("algebra does not match the actor's target")
    f, n = A.field, A.dim
    rows = []
    for b in range(act.B.dim):
        L = Matrix.from_rows(f, (tuple(act.left[b][j][k] for j in range(n)) for k in range(n)))
        R = Matrix.from_rows(f, (tuple(act.right[j][b][k] for j in range(n)) for k in range(n)))
        coords = actor.member_coords(BiMap(L, R))
        if coords is None:
            return Report(False, label="action pair lies in the candidate's span",
                          witness=(b,))
        rows.append(coords)
    return Report(True, details=[{"phi_rows": tuple(rows),
                                  "note": "unique: basis pairs are independent"}])


def canonical_d(A: Algebra, actor: ActorAlgebra) -> Matrix:
    """The canonical map d: A -> actor, A's conjugation action factored
    through the candidate.

    Row i holds the actor coordinates of (e_i * -, - * e_i).  A pair outside
    the actor's span means the candidate does not contain its own inner
    multiplications, which no valid input should produce; that raises
    ConstructionError rather than returning a partial answer.
    """
    rep = factor_through_actor(actor, conjugation_action(A))
    if not rep.passed:
        raise ConstructionError(
            f"multiplication pair of basis element {rep.witness[0]} is outside the "
            f"{actor.kind} span")
    return Matrix.from_rows(A.field, rep.details[0]["phi_rows"])


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

    dt = Matrix.from_rows(f, zip(*d.rows))  # dt.apply(v) is d(v) for v in A coordinates

    auto = "auto-pass: addition commutes and the dot action is trivial"
    details = [
        {"condition": "i", "name": "d respects the dot action", "status": "pass", "note": auto},
        {"condition": "ii", "name": "dot action along d is conjugation", "status": "pass",
         "note": auto},
    ]
    for i in range(A.dim):
        di = d.rows[i]
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


# the two existence conditions as identity rows on the witnesses (s, t, col)
# of the semidirect product, parts (0, 0, 1): basis pairs s and t of the
# candidate and a basis vector col of A, so s*(col*t) is column col of
# L_s R_t, s*(t*col) of L_s L_t and (s*col)*t of R_t L_s: (details key, row)
_CONDITIONS = {
    1: ("bider_dim", ("[phi,[a,phi']] = -[phi,[phi',a]]", [(1, "R", (0, 2, 1))],
                      [(-1, "R", (0, 1, 2))])),
    2: ("bim_dim", ("f*(a*f') = (f*a)*f'", [(1, "R", (0, 2, 1))], [(1, "L", (0, 2, 1))])),
}

# every block of witnesses of three labels but B x B x A, which the rows
# above name
_BBA_ONLY = frozenset(np.ndindex((2,) * 3)) - {(0, 0, 1)}


def _condition_check(which: int, actor: ActorAlgebra) -> Report:
    """Condition `which` on every pair (s, t) of the candidate's basis
    pairs: its row on the B x B x A block of its semidirect_blocks, by the
    suite's sweep.  The witness is the first (s, t, col) at which the two
    sides differ in column col, and the sides are those columns."""
    key, row = _CONDITIONS[which]
    m = actor.dim
    details = [{key: m}]
    rep = _row_failure(actor.target.field, actor.semidirect_blocks, row, _BBA_ONLY)
    if rep is None:
        return Report(True, details=details)
    s, t, col = rep.witness
    return Report(False, label=rep.label, witness=(s, t, col - m), lhs=lambda: rep.lhs[m:],
                  rhs=lambda: rep.rhs[m:], details=details)


def condition1_check(A: Algebra, bider: ActorAlgebra | None = None) -> Report:
    """[phi,[a,phi']] = -[phi,[phi',a]] over the biderivation basis."""
    bider = biderivations(A, 1) if bider is None else bider
    return _condition_check(1, bider)


def _commutative_bimultipliers(mult: ActorAlgebra, flags: Flags) -> Matrix:
    """The canonical basis of bimultipliers(A) for a commutative A, read off
    its multipliers and the Ann(A) and A^2 of its flags with no constraint
    assembly.  By the theorem in the existence module's docstring, Bim(A)
    is the direct sum of {(g, g) : g in Mult(A)} and {(h, 0) : h a linear
    map A/A^2 -> Ann(A)}; the h are spanned by the maps u phi^T, u in Ann(A)'s
    basis and phi in that of the functionals vanishing on A^2, the nullspace
    of A^2's basis.  Those integer rows, in the flattened layout, have one
    RREF, the unique one of the span, so the basis bimultipliers(A) builds.
    Row scaling keeps the span, so each part keeps its own lam, and u phi^T
    is taken on the rung of its bound.  A dim other than the theorem's
    raises ConstructionError."""
    A = mult.target
    f, n = A.field, A.dim
    g = mult.span.scaled()[1]
    u = flags.ann.scaled()[1]
    phi = flags.square.nullspace().scaled()[1]
    dtype = rung(magnitude(u) * magnitude(phi))
    h = u.astype(dtype)[:, None, :, None] * phi.astype(dtype)[None, :, None, :]
    h = exact_ints(h.reshape(len(u) * len(phi), n * n))
    rows = np.vstack([np.hstack([g, g]), np.hstack([h, np.zeros_like(h)])])
    span = Matrix.from_ints(f, rows).rref()
    want = commutative_bim_dim(mult, flags)
    if span.nrows != want:
        raise ConstructionError(f"bimultipliers from multipliers: dim {span.nrows}, "
                                f"the theorem gives {want}")
    return span


def commutative_bim_dim(mult: ActorAlgebra, flags: Flags) -> int:
    """dim Bim(A) of a commutative A, by the theorem in the existence
    module's docstring: dim Mult(A) + (n - dim A^2) dim Ann(A), read off its
    multipliers and the flags of sufficient_conditions(A)."""
    return mult.dim + (mult.target.dim - flags.square.nrows) * flags.ann.nrows


def condition2_check(A: Algebra, bim: ActorAlgebra | None = None,
                     mult: ActorAlgebra | None = None, flags: Flags | None = None) -> Report:
    """(f*a)*f' = f*(a*f') over the bimultiplier basis.  It reads the blocks
    of bim when given.  Given the multipliers of a commutative A and its
    flags instead, it reads those of the bim candidate whose span
    _commutative_bimultipliers gives, with no assembly and no closure: the
    row reads no product of two bimultipliers.  Given neither, it builds bimultipliers(A)
    afresh, the oracle of both routes in the tests.  mult without flags
    raises InputError.  The pipeline reads a passing condition off its
    verdict, by the theorems in the existence module, and calls this only
    when the verdict fails."""
    if mult is not None and flags is None:
        raise InputError("condition2_check: mult needs the flags of sufficient_conditions(A)")
    if bim is None:
        bim = bimultipliers(A) if mult is None \
            else ActorAlgebra("bim", A, _commutative_bimultipliers(mult, flags))
    return _condition_check(2, bim)


class Flags(dict):
    """The two sufficient flags, the dict a verdict emits, with the
    subspaces they are read from, as RREF matrices: ann, the annihilator,
    and square, A^2."""

    def __init__(self, ann: Matrix, square: Matrix, n: int):
        super().__init__(ann_zero=ann.nrows == 0, perfect=square.nrows == n)
        self.ann, self.square = ann, square


def sufficient_conditions(A: Algebra) -> Flags:
    """Two checkable properties, either of which forces the conditions above:
    trivial annihilator, or the products spanning the whole space."""
    return Flags(annihilator(A), derived_subspace(A), A.dim)
