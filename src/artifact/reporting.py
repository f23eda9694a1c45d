"""Shared pass/fail report structure used by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .linalg import lazy


@dataclass
class Report:
    """Outcome of a check.

    passed   overall boolean verdict
    label    name of the failed identity/condition (None when passed)
    witness  lexicographically first failing index tuple, if any
    lhs/rhs  both sides evaluated at the witness, if meaningful; each may be
             given as a function of no arguments, evaluated on first read
             (linalg.lazy), as the identity suite does: most callers of a
             failing suite read only its label and witness
    details  per-condition lines for multi-part checks
    """

    passed: bool
    label: Optional[str] = None
    witness: Optional[tuple] = None
    lhs: Optional[tuple] = lazy(None)
    rhs: Optional[tuple] = lazy(None)
    details: list = field(default_factory=list)

    def to_json(self, scalar_to_json=None) -> dict[str, Any]:
        def conv(v):
            if v is None:
                return None
            if scalar_to_json is None:
                return list(v)
            return [scalar_to_json(x) for x in v]

        out: dict[str, Any] = {"passed": self.passed}
        if self.label is not None:
            out["label"] = self.label
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.lhs is not None:
            out["lhs"] = conv(self.lhs)
        if self.rhs is not None:
            out["rhs"] = conv(self.rhs)
        if self.details:
            out["details"] = self.details
        return out
