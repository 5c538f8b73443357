"""Structured records for cells that exhausted their retry budget.

A sweep must not abort because one cell's worker keeps dying — the
paper's "design for variation in outcome" applies to the harness too.
When the resilient executor gives up on a cell it emits a
:class:`FailedCell` describing what was tried and why it failed, so the
merged report still accounts for every cell deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["FailedCell"]


@dataclass
class FailedCell:
    """Terminal failure record for one sweep cell.

    Attributes
    ----------
    experiment_id, params_json, base_seed:
        The cell's identity, matching the sweep cache key.
    attempts:
        Total attempts made (initial try plus retries).
    reasons:
        One entry per failed attempt, e.g. ``"worker-death(exitcode=3)"``
        or ``"timeout(2.0s)"``, in attempt order.
    """

    experiment_id: str
    params_json: str
    base_seed: int
    attempts: int
    reasons: List[str] = field(default_factory=list)

    def to_error_dict(self) -> Dict[str, object]:
        """The ``error`` payload field for a ``status: "failed"`` cell."""
        return {
            "type": "FailedCell",
            "attempts": self.attempts,
            "reasons": list(self.reasons),
        }
