"""Pricing strategies for providers.

"One of the standard ways to improve revenues is to find ways to divide
customers into classes based on their willingness to pay, and charge them
accordingly — what economists call value pricing" (§V-A-2). Strategies
here are provider policies that adjust prices each market round given what
the provider can observe (its share, competitors' prices, detected server
usage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import MarketError
from .agents import Provider

__all__ = [
    "PricingStrategy",
    "UndercutPricing",
    "MonopolyPricing",
    "ValuePricingStrategy",
]


class PricingStrategy:
    """Interface: adjust a provider's prices for the next round.

    ``observe`` receives the provider, all current market prices and the
    provider's current share; it mutates ``provider.price`` (and
    ``business_price`` for tiering strategies).
    """

    def adjust(
        self,
        provider: Provider,
        market_prices: Dict[str, float],
        own_share: float,
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class UndercutPricing(PricingStrategy):
    """Competitive pricing: undercut the cheapest rival, floored at cost.

    This is the "fear" dynamic: "The vector of fear is competition, which
    results when the consumer has choice" (§V-A). With several undercutters
    in a market, prices race toward marginal cost.
    """

    undercut_by: float = 1.0
    margin_floor: float = 0.5

    def adjust(self, provider: Provider, market_prices: Dict[str, float],
               own_share: float) -> None:
        rivals = [p for name, p in market_prices.items() if name != provider.name]
        if not rivals:
            return
        floor = provider.unit_cost + self.margin_floor
        target = min(rivals) - self.undercut_by
        provider.price = max(floor, target)
        if provider.business_price is not None:
            provider.business_price = max(provider.price, provider.business_price)


@dataclass
class MonopolyPricing(PricingStrategy):
    """Raise prices while share holds: the no-fear regime.

    "Many telephone company executives remember the good old monopoly
    days, with a comfortable regulated rate of return and no fear" (§V-C).
    Price creeps up each round unless share has collapsed, bounded by
    ``price_cap``.
    """

    creep: float = 1.0
    share_floor: float = 0.25
    price_cap: float = 200.0

    def adjust(self, provider: Provider, market_prices: Dict[str, float],
               own_share: float) -> None:
        if own_share >= self.share_floor:
            provider.price = min(self.price_cap, provider.price + self.creep)
        else:
            provider.price = max(provider.unit_cost, provider.price - self.creep)
        if provider.business_price is not None and provider.business_price < provider.price:
            provider.business_price = provider.price


@dataclass
class ValuePricingStrategy(PricingStrategy):
    """Maintain a business tier at a multiple of the basic price.

    The provider keeps (or introduces) a server-permitting tier priced at
    ``tier_multiple`` x basic, and otherwise delegates basic-price motion
    to ``base_strategy``.
    """

    tier_multiple: float = 2.5
    base_strategy: Optional[PricingStrategy] = None

    def __post_init__(self) -> None:
        if self.tier_multiple < 1.0:
            raise MarketError("business tier multiple must be >= 1")

    def adjust(self, provider: Provider, market_prices: Dict[str, float],
               own_share: float) -> None:
        if self.base_strategy is not None:
            self.base_strategy.adjust(provider, market_prices, own_share)
        provider.business_price = provider.price * self.tier_multiple
