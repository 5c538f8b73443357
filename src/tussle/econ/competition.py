"""Competition metrics and entry/exit dynamics.

The paper's economics tussle turns on how healthy competition is: "The
probable outcome of this tussle depends strongly on whether one perceives
competition as currently healthy in the Internet, or eroding to dangerous
levels" (§V-A-2). These metrics let experiments report competition level
as a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..canon import ordered_sum
from ..errors import MarketError

__all__ = [
    "herfindahl_index",
    "effective_competitors",
    "lerner_index",
    "CompetitionReport",
    "competition_report",
]


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


def effective_competitors(shares: Sequence[float]) -> float:
    """Inverse HHI: the 'numbers-equivalent' count of competitors."""
    return 1.0 / herfindahl_index(shares)


def lerner_index(price: float, marginal_cost: float) -> float:
    """Lerner index of market power: (P - MC) / P, clamped to [0, 1].

    0 = perfectly competitive pricing; approaching 1 = monopoly pricing.
    """
    if price <= 0:
        raise MarketError(f"price must be positive, got {price}")
    return max(0.0, min(1.0, (price - marginal_cost) / price))


@dataclass
class CompetitionReport:
    """Snapshot of how competitive a market is."""

    hhi: float
    effective_competitors: float
    mean_lerner: float

    @property
    def healthy(self) -> bool:
        """Rule of thumb: at least ~3 effective competitors and modest margins.

        (US antitrust practice treats HHI > 0.25 as highly concentrated;
        we use the same threshold.)
        """
        return self.hhi <= 0.25 and self.mean_lerner <= 0.5


def competition_report(
    shares: Mapping[str, float],
    prices: Mapping[str, float],
    marginal_costs: Mapping[str, float],
) -> CompetitionReport:
    """Build a :class:`CompetitionReport` from per-provider observations."""
    share_values = [s for s in shares.values() if s > 0]
    if not share_values:
        raise MarketError("no provider holds any share")
    hhi = herfindahl_index(share_values)
    lerners = []
    for name, share in shares.items():
        if share <= 0:
            continue
        price = prices.get(name)
        cost = marginal_costs.get(name)
        if price is None or cost is None or price <= 0:
            continue
        lerners.append(lerner_index(price, cost))
    mean_lerner = sum(lerners) / len(lerners) if lerners else 0.0
    return CompetitionReport(
        hhi=hhi,
        effective_competitors=1.0 / hhi,
        mean_lerner=mean_lerner,
    )
