"""The existence verdict: does the candidate-semidirect construction land
back inside the category?

For each supported category the pipeline builds the concrete candidate,
forms the semidirect product along the candidate's induced action, and runs
the category's identity suite on the result.  Existence of an actor is
equivalent to that suite passing; the verdict carries the first failing
identity and witness when it does not.  One table, _CATEGORY_TABLE, names
each category's candidate and the existence condition reported beside the
verdict.

The suite decides the product block by block.  Its input,
ActorAlgebra.semidirect_blocks, is the product's four integer blocks,
placed from the candidate's integer arrays and A.integer_tensor, so no
dense (N, N, N) tensor is made, and the blocks of witnesses that hold by
construction or by proof, which the suite never evaluates.  Those are, per
identity tag, the witnesses with every index in A (A's own suite, which
passed on entry), those with one index in the candidate (the constraint
rows the candidate solves), and those with more that KIND_TABLE's rows
prove.  For a Lie algebra that is every block, so its verdict is exists
with no evaluation.  For an associative one only B x A x B runs, the
products condition 2 compares; a commutative one runs that block and
A x B x B of associativity and B x B of commutativity, each asking whether
the multipliers commute; a Leibniz one runs every block with two or three
candidate indices.  Only the commutative and Leibniz suites read a product
of two candidate indices, so only their verdicts build the candidate's
structure constants, with its closure certificate; a Lie or associative
verdict builds neither, as its candidate is closed by theorem (KIND_TABLE's
der and bim rows), and its bb block is placed with no columns.  The open
blocks are swept together, a few leading indices at a time, so a failure
near the start stops them all.  A failing suite reads its witness sides off
the same blocks, and only when they are read.  The candidate's maps and
tensor, its induced action and the semidirect product are built on first
read, so no verdict makes a field scalar of the candidate, its action or
the product.
actions.crosscheck_semidirect keeps the dense route, on the eagerly built
product, as the independent oracle.

Condition 1 (Leibniz) and condition 2 (associative and commutative) are
rows on the B x B x A block of their candidate's product, read by the same
sweep off blocks built once per candidate (ActorAlgebra.semidirect_blocks).
A passing verdict decides condition 2 by a theorem instead, and its report
is the passing one with bim_dim, the dimension of A's bimultipliers:

- Associative: the candidate is the bimultipliers, so bim_dim is its dim.
  Condition 2's row at B x B x A cell (f, f', a), f*(a*f') = (f*a)*f', is
  the associativity row at B x A x B cell (f, a, f'), a block the verdict
  evaluates, so it holds when the verdict does.
- Commutative: bim_dim = dim Mult(A) + (n - dim A^2) * dim Ann(A).  For a
  commutative A, (L, R) is a bimultiplier iff L and R are multipliers and
  (L - R)(A) lies in Ann(A): R(xy) = R(yx) = yR(x) = R(x)y makes R a
  multiplier, and a multiplier has xL(y) = L(y)x = L(yx) = L(x)y, so the
  coupling xL(y) = R(x)y reads (L - R)(x)y = 0.  A multiplier h with h(A)
  in Ann(A) has h(xy) = h(x)y = 0, and any linear map vanishing on A^2
  with image in Ann(A) is a multiplier, so these h are the linear maps
  A/A^2 -> Ann(A).  Every multiplier g gives the bimultiplier (g, g), and
  condition 2 at (f, f') reads L_f R_f' = R_f' L_f on A, two multipliers,
  so it holds iff Mult(A) commutes: the B x A x B block of associativity
  that the multiplier verdict evaluates (KIND_TABLE's mult row).
  sufficient_conditions computes A^2 and Ann(A) once per decision, and its
  flags carry both.

A failing verdict runs constructions.condition2_check for its witness and
sides.  An associative one sweeps the blocks of its own candidate.  A
commutative one builds no second candidate: by the above, a bimultiplier
is (L, R) = (R, R) + (L - R, 0), R a multiplier and L - R a linear map
A/A^2 -> Ann(A), and every such pair is one; (g, g) = (h, 0) forces g = 0.
So Bim(A) is the direct sum of {(g, g) : g in Mult(A)} and {(h, 0) : h in
Hom(A/A^2, Ann(A))}, spanned by the verdict's multipliers and the maps
u phi^T, u in Ann(A) and phi vanishing on A^2.  The RREF of those rows is
the canonical basis bimultipliers(A) builds, as an RREF is unique, and
condition 2 reads only the pairs, never a product of two of them, so its
blocks need no structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .actions import semidirect
from .algebra import Algebra, InputError, identity_suite
from .constructions import (
    ActorAlgebra,
    bimultipliers,
    biderivations,
    commutative_bim_dim,
    condition1_check,
    condition2_check,
    derivations,
    factor_through_actor,  # re-exported
    multipliers,
    sufficient_conditions,
    zero_actor,
)
from .reporting import Report


@dataclass
class Verdict:
    status: str  # "exists" | "not-exists" | "unsupported-general"
    exists: bool
    sufficient_flags: dict
    actor_kind: Optional[str] = None
    actor_dim: Optional[int] = None
    semidirect_dim: Optional[int] = None
    failure: Optional[dict] = None
    condition_status: Optional[Report] = None
    notes: list = field(default_factory=list)
    # carried for downstream checks, not serialized
    actor: Optional[ActorAlgebra] = field(default=None, repr=False, compare=False)
    semidirect_product: Optional[Algebra] = field(default=None, repr=False, compare=False)

    def to_json(self, scalar_to_json=None) -> dict:
        out = {
            "status": self.status,
            "exists": self.exists,
            "sufficient_flags": self.sufficient_flags,
        }
        if self.actor_kind is not None:
            out["actor_kind"] = self.actor_kind
        if self.actor_dim is not None:
            out["actor_dim"] = self.actor_dim
        if self.semidirect_dim is not None:
            out["semidirect_dim"] = self.semidirect_dim
        if self.failure is not None:
            out["failure"] = self.failure
        if self.condition_status is not None:
            out["condition_status"] = self.condition_status.to_json(scalar_to_json)
        if self.notes:
            out["notes"] = self.notes
        return out


# category -> (its candidate, its existence condition or None, and that
# condition's bim_dim on a passing verdict, by the theorems in the module
# docstring, or None where none is proved).  A candidate is built from A's
# own suite, which passed: each category's candidate is cut out by that
# suite.  Each entry calls through this module's names when the pipeline
# runs, so a rebound constructor or check is the one called.
_CATEGORY_TABLE = {
    "module": (lambda A, variant, own: zero_actor(A), None, None),
    "lie": (lambda A, variant, own: derivations(A, own), None, None),
    "associative": (lambda A, variant, own: bimultipliers(A, own),
                    lambda A, actor, flags: condition2_check(A, bim=actor),
                    lambda A, actor, flags: actor.dim),
    "leibniz": (lambda A, variant, own: biderivations(A, variant, own),
                lambda A, actor, flags: condition1_check(A, bider=actor), None),
    "commutative": (lambda A, variant, own: multipliers(A, own),
                    lambda A, actor, flags: condition2_check(A, mult=actor, flags=flags),
                    lambda A, actor, flags: commutative_bim_dim(actor, flags)),
}


def actor_pipeline(A: Algebra, variant: int = 1, own: Optional[Report] = None) -> Verdict:
    """Build the candidate for A's category and decide existence.

    _CATEGORY_TABLE names the candidate, the condition and, where a theorem
    gives it, condition 2's report on a passing verdict; variant picks the
    biderivation bracket.  A's own suite runs once, unless own is its
    report already, as the atlas hands over its sampler's: the candidate's
    constructor takes that report.  The alternative category has no
    candidate here yet, so its verdict is the three-state
    "unsupported-general", with no per-instance witness.
    """
    own = identity_suite(A) if own is None else own
    if not own.passed:
        raise InputError(f"input fails its own {A.category} identity suite: "
                         f"{own.label!r} at {own.witness}")
    flags = sufficient_conditions(A)

    if A.category == "alternative":
        return Verdict(
            status="unsupported-general", exists=False, sufficient_flags=flags,
            notes=["in this category the universal candidate never produces an actor, "
                   "for any algebra; there is no per-instance witness to show"])
    if A.category == "raw":
        raise InputError("category 'raw' carries no actor candidate")

    build, check, bim_dim = _CATEGORY_TABLE[A.category]
    actor = build(A, variant, own)
    act = actor.action_pair()
    prod = semidirect(act)
    # the suite and its witness sides run on the product's integer blocks,
    # never on its scalars
    beta = identity_suite(prod, A.category, c=actor.semidirect_blocks)
    # the multiplier candidate's right component is its left one, so b*a =
    # a*b holds by construction, and the suite above leaves those blocks of
    # the commutativity row closed
    notes = (["induced action is symmetric: b*a = a*b on all basis pairs"]
             if A.category == "commutative" else [])
    # a passing verdict decides condition 2 by the module docstring's theorems
    condition = None if check is None else (
        Report(True, details=[{"bim_dim": bim_dim(A, actor, flags)}])
        if beta.passed and bim_dim else check(A, actor, flags))

    failure = None
    if not beta.passed:
        failure = {"label": beta.label,
                   "witness": list(beta.witness) if beta.witness else None}
    exists = failure is None
    return Verdict(
        status="exists" if exists else "not-exists",
        exists=exists,
        sufficient_flags=flags,
        actor_kind=actor.kind,
        actor_dim=actor.dim,
        semidirect_dim=prod.dim,
        failure=failure,
        condition_status=condition,
        notes=notes,
        actor=actor,
        semidirect_product=prod,
    )


def bider_variants_agree(A: Algebra) -> Report:
    """Compare the two biderivation bracket variants on the shared basis."""
    b1 = biderivations(A, 1)
    b2 = ActorAlgebra("bider2", A, b1.span)  # the span is the same in both variants
    cond = condition1_check(A, bider=b1)
    info = {"bider_dim": b1.dim, "condition1_passed": cond.passed}
    for s in range(b1.dim):
        for t in range(b1.dim):
            if b1.tensor[s][t] != b2.tensor[s][t]:
                return Report(False, label="variant brackets agree", witness=(s, t),
                              lhs=b1.tensor[s][t], rhs=b2.tensor[s][t], details=[info])
    return Report(True, details=[info])
