"""The existence verdict: does the candidate-semidirect construction land
back inside the category?

For each supported category the pipeline builds the concrete candidate,
forms the semidirect product along the candidate's induced action, and runs
the category's identity suite on the result.  Existence of an actor is
equivalent to that suite passing; the verdict carries the first failing
identity and witness when it does not.

The suite's integer tensor comes from constructions.semidirect_tensor,
which places the integer arrays the closure already holds, rather than from
converting the product's N^3 field scalars back; the product itself is
still built, for the verdict and the exact witness sides.
actions.crosscheck_semidirect keeps the conversion route as the independent
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .actions import ActionPair, semidirect
from .algebra import Algebra, InputError, identity_suite
from .constructions import (
    ActorAlgebra,
    BiMap,
    bimultipliers,
    biderivations,
    condition1_check,
    condition2_check,
    derivations,
    multipliers,
    semidirect_tensor,
    sufficient_conditions,
    zero_actor,
)
from .linalg import Matrix
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
    actor: Optional[ActorAlgebra] = None
    semidirect_product: Optional[Algebra] = None

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


def actor_pipeline(A: Algebra, variant: int = 1) -> Verdict:
    """Build the candidate for A's category and decide existence.

    Dispatch: lie -> derivations, associative -> bimultipliers, leibniz ->
    biderivations (bracket variant selectable), commutative -> multipliers
    (whose induced action is symmetric by construction), module
    -> the zero candidate.  For the alternative category no general
    candidate yields an actor for any algebra, so the verdict is the
    three-state "unsupported-general" with no per-instance witness.
    """
    own = identity_suite(A)
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

    if A.category == "module":
        actor = zero_actor(A)
    elif A.category == "lie":
        actor = derivations(A)
    elif A.category == "associative":
        actor = bimultipliers(A)
    elif A.category == "leibniz":
        actor = biderivations(A, variant)
    else:  # commutative
        actor = multipliers(A)

    act = actor.action_pair()
    prod = semidirect(act)
    notes = []
    # the product's scalars are for the verdict and the witness sides; the
    # suite runs on the integer tensor placed from the candidate's blocks
    beta = identity_suite(prod, A.category, c=semidirect_tensor(actor))
    if A.category == "commutative":
        # the multiplier candidate's right component is its left one, so
        # b*a = a*b holds by construction; the commutativity row of the
        # suite above checks the same products
        notes.append("induced action is symmetric: b*a = a*b on all basis pairs")

    if A.category == "leibniz":
        condition = condition1_check(A, bider=actor)
    elif A.category in ("associative", "commutative"):
        condition = condition2_check(A, bim=actor if actor.kind == "bim" else None)
    else:
        condition = None

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
    b2 = biderivations(A, 2)
    cond = condition1_check(A, bider=b1)
    info = {"bider_dim": b1.dim, "condition1_passed": cond.passed}
    for s in range(b1.dim):
        for t in range(b1.dim):
            if b1.tensor[s][t] != b2.tensor[s][t]:
                return Report(False, label="variant brackets agree", witness=(s, t),
                              lhs=b1.tensor[s][t], rhs=b2.tensor[s][t], details=[info])
    return Report(True, details=[info])


def factor_through_actor(actor: ActorAlgebra, act: ActionPair) -> Report:
    """Express a derived action of B through the actor candidate.

    For each basis element of B, its pair of action matrices must lie in the
    candidate's span; the coordinates assemble the unique linear map B ->
    candidate with the same action values.  Uniqueness is automatic because
    candidate elements are their pairs and the basis is independent.
    """
    A = actor.target
    if act.A.tensor != A.tensor or act.A.field != A.field:
        raise InputError("action target does not match the actor's target")
    f = A.field
    n = A.dim
    rows = []
    for b in range(act.B.dim):
        L = Matrix(f, tuple(tuple(act.left[b][j][k] for j in range(n)) for k in range(n)))
        R = Matrix(f, tuple(tuple(act.right[j][b][k] for j in range(n)) for k in range(n)))
        coords = actor.member_coords(BiMap(L, R))
        if coords is None:
            return Report(False, label="action pair lies in the candidate's span",
                          witness=(b,))
        rows.append(coords)
    phi = Matrix.from_rows(f, rows)
    return Report(True, details=[{"phi_rows": phi.rows,
                                  "note": "unique: basis pairs are independent"}])
