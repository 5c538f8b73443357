"""Economic agents: consumers and providers.

"Providers tussle as they compete, and consumers tussle with providers to
get the service they want at a low price" (§V-A). Consumers here carry the
attributes every economics experiment varies: willingness to pay, segment
(server-runner or not), switching cost (set by the addressing substrate in
E01), and their repertoire of counter-moves (switch provider, tunnel).
Providers carry a price schedule, unit cost and profit ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..errors import MarketError
from .demand import Segment

__all__ = ["Consumer", "Provider"]


@dataclass
class Consumer:
    """A consumer in the access market.

    Attributes
    ----------
    wtp:
        Willingness to pay per round for basic service.
    segment:
        BASIC or BUSINESS; business consumers want to run a server and
        get extra value ``server_value`` per round from doing so.
    switching_cost:
        One-time cost to change providers (E01 ties this to addressing).
    can_tunnel:
        Whether this consumer knows how to tunnel around usage
        restrictions (§V-A-2's counter-move); tunnelling costs
        ``tunnel_cost`` per round in hassle.
    """

    name: str
    wtp: float
    segment: Segment = Segment.BASIC
    switching_cost: float = 0.0
    server_value: float = 0.0
    can_tunnel: bool = False
    tunnel_cost: float = 2.0
    provider: Optional[str] = None
    tunnelling: bool = False
    switches: int = 0
    surplus: float = 0.0

    def __post_init__(self) -> None:
        # A non-finite amount makes offers NaN or infinite, and on those
        # the scalar and vector market backends choose differently.
        for attr in ("wtp", "switching_cost", "server_value", "tunnel_cost"):
            if not math.isfinite(getattr(self, attr)):
                raise MarketError(
                    f"consumer {self.name!r}: {attr} must be finite, "
                    f"got {getattr(self, attr)!r}")

    def values_server(self) -> bool:
        return self.segment is Segment.BUSINESS and self.server_value > 0

    def round_value(self, runs_server: bool) -> float:
        """Gross value this consumer derives in one round."""
        value = self.wtp
        if runs_server and self.values_server():
            value += self.server_value
        return value


@dataclass
class Provider:
    """An access provider (ISP).

    Attributes
    ----------
    price:
        Current price for basic service per round.
    business_price:
        Price for the "business" tier that permits servers (value
        pricing); ``None`` means no tiering (servers permitted at the
        basic rate).
    unit_cost:
        Marginal cost of serving one consumer per round.
    detects_tunnels:
        Whether the provider's classifier catches tunnelled servers (the
        escalation step beyond port-based detection).
    """

    name: str
    price: float
    business_price: Optional[float] = None
    unit_cost: float = 5.0
    detects_tunnels: bool = False
    subscribers: Set[str] = field(default_factory=set)
    profit: float = 0.0
    revenue_history: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        # NaN compares False against everything, so ``price < 0`` lets it
        # through; on NaN or infinite prices the market backends disagree.
        for attr in ("price", "business_price", "unit_cost"):
            value = getattr(self, attr)
            if value is not None and not math.isfinite(value):
                raise MarketError(
                    f"provider {self.name!r}: {attr} must be finite, "
                    f"got {value!r}")
        if self.price < 0:
            raise MarketError(f"negative price {self.price}")
        if self.business_price is not None and self.business_price < self.price:
            raise MarketError("business tier cannot undercut the basic tier")

    @property
    def tiered(self) -> bool:
        """Does this provider practice value pricing?"""
        return self.business_price is not None

    def price_for(self, consumer: Consumer, runs_server_openly: bool) -> float:
        """The price this consumer would pay given their visible behaviour."""
        if self.tiered and runs_server_openly:
            return self.business_price  # type: ignore[return-value]
        return self.price

    def record_round(self, revenue: float, n_subscribers: int) -> None:
        cost = self.unit_cost * n_subscribers
        self.profit += revenue - cost
        self.revenue_history.append(revenue)

    def market_share(self, total_consumers: int) -> float:
        if total_consumers <= 0:
            return 0.0
        return len(self.subscribers) / total_consumers
