"""Market concentration.

The paper's economics tussle turns on how healthy competition is: "The
probable outcome of this tussle depends strongly on whether one perceives
competition as currently healthy in the Internet, or eroding to dangerous
levels" (§V-A-2). The Herfindahl–Hirschman index lets experiments report
competition level as a number.
"""

from __future__ import annotations

from typing import Sequence

from ..canon import ordered_sum
from ..errors import MarketError

__all__ = ["herfindahl_index"]


def herfindahl_index(shares: Sequence[float]) -> float:
    """Herfindahl–Hirschman index of market concentration.

    Input shares must sum to (approximately) 1 over active firms; returns
    a value in (0, 1]: 1 = monopoly, 1/n = n symmetric competitors.
    """
    active = [s for s in shares if s > 0]
    if not active:
        raise MarketError("no active market shares")
    total = ordered_sum(active)
    if total <= 0:
        raise MarketError("shares must sum to a positive value")
    normalized = [s / total for s in active]
    return ordered_sum(s * s for s in normalized)

