"""The access-market simulation: providers, consumers, rounds.

Each round of :class:`Market`:

1. providers adjust prices per their :class:`~tussle.econ.pricing.PricingStrategy`;
2. every consumer evaluates each provider's *effective* offer — price for
   their visible behaviour, the value they would get (can they run their
   server openly? must they tunnel?) — and switches when the surplus gain
   beats their switching cost;
3. revenue, profit, surplus and churn are recorded.

This is the model behind E01 (switching cost sweep), E02 (value pricing
vs tunnelling) and E03 (facility competition), each of which configures
consumers/providers differently and reads the recorded series.  Those
experiments run it on :class:`~tussle.scale.vmarket.VectorMarket`, the
NumPy backend; :class:`Market` is the readable reference that the
``market`` parity pair holds it to, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MarketError
from ..obs.runtime import current as _obs_current
from .agents import Consumer, Provider
from .decision import TIE_EPSILON, amount_paid, effective_offer
from .pricing import PricingStrategy

__all__ = ["MarketRound", "MarketObserver", "Market"]


@dataclass
class MarketRound:
    """Per-round aggregate record."""

    index: int
    mean_price: float
    switches: int
    consumer_surplus: float
    provider_profit: float
    tunnelling_consumers: int
    shares: Dict[str, float] = field(default_factory=dict)


class MarketObserver:
    """The ``econ.market`` round span and counters of one market.

    :class:`Market` and the vectorized
    :class:`~tussle.scale.vmarket.VectorMarket` both report every round
    through this, so a trace or metrics snapshot reads the same
    whichever backend ran.  The hooks are bound once, from the ambient
    obs context at construction, and are ``None`` when it is disabled.
    """

    def __init__(self) -> None:
        ctx = _obs_current()
        self._trace = ctx.tracer if ctx.tracer.enabled else None
        if ctx.metrics.enabled:
            scope = ctx.metrics.scope("econ.market")
            self._c_rounds = scope.counter("clearing_rounds")
            self._c_switches = scope.counter("switches")
            self._c_pricing = scope.counter("pricing_adjustments")
            self._h_price = scope.histogram("mean_price")
        else:
            self._c_rounds = None
            self._c_switches = None
            self._c_pricing = None
            self._h_price = None

    def round(self, record: MarketRound, pricing_moves: int) -> None:
        """Report one finished round spanning ``[index, index + 1)``."""
        if self._c_rounds is not None:
            self._c_rounds.inc()
            self._c_switches.inc(record.switches)
            self._c_pricing.inc(pricing_moves)
            self._h_price.observe(record.mean_price)
        if self._trace is not None:
            self._trace.begin(
                "econ.market", "round", float(record.index)).end(
                float(record.index + 1), switches=record.switches,
                tunnelling=record.tunnelling_consumers,
                pricing_moves=pricing_moves, mean_price=record.mean_price)


class Market:
    """A round-based access market.

    Parameters
    ----------
    providers, consumers:
        The participating agents. Consumers with ``provider=None`` pick
        their best initial provider in round 0 at zero switching cost.
    strategies:
        Optional per-provider pricing strategies.
    server_prohibited_without_tier:
        When True, tiered providers require the business rate to run a
        server *openly*; non-tiered providers allow servers at the basic
        rate. (The §V-A-2 acceptable-use policy.)
    preference_noise:
        Amplitude of per-(consumer, provider) idiosyncratic taste, drawn
        uniformly on [-noise, +noise] once at construction. Models product
        differentiation; without it, identical prices send every consumer
        to the alphabetically-first provider.
    seed:
        Seeds tie-breaking and preference noise.
    """

    def __init__(
        self,
        providers: Sequence[Provider],
        consumers: Sequence[Consumer],
        strategies: Optional[Dict[str, PricingStrategy]] = None,
        server_prohibited_without_tier: bool = True,
        preference_noise: float = 0.0,
        seed: int = 0,
    ):
        if not providers:
            raise MarketError("market needs at least one provider")
        names = [p.name for p in providers]
        if len(set(names)) != len(names):
            raise MarketError("provider names must be unique")
        self.providers: Dict[str, Provider] = {p.name: p for p in providers}
        self.consumers: List[Consumer] = list(consumers)
        self.strategies = dict(strategies or {})
        self.server_prohibited_without_tier = server_prohibited_without_tier
        self.rng = random.Random(seed)
        self._taste: Dict[Tuple[str, str], float] = {}
        if preference_noise > 0:
            noise_rng = random.Random(seed + 1)
            for consumer in self.consumers:
                for name in sorted(self.providers):
                    self._taste[(consumer.name, name)] = noise_rng.uniform(
                        -preference_noise, preference_noise
                    )
        self.history: List[MarketRound] = []
        # Offers depend only on static consumer attributes and the
        # provider's pricing signature, so each provider's per-consumer
        # offer column is cached and recomputed only when its prices (or
        # detection posture) actually change that round.
        self._offer_cache: Dict[str, List[Tuple[float, bool]]] = {}
        self._offer_signatures: Dict[str, Tuple] = {}
        self._obs = MarketObserver()
        self._initial_assignment()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _initial_assignment(self) -> None:
        """Round-0 free choice: everyone picks their best offer."""
        for index, consumer in enumerate(self.consumers):
            if consumer.provider is not None:
                self.providers[consumer.provider].subscribers.add(consumer.name)
                continue
            best, _, _, _ = self._best_offer(index, consumer, free_switch=True)
            if best is not None:
                consumer.provider = best
                self.providers[best].subscribers.add(consumer.name)

    # ------------------------------------------------------------------
    # Offers
    # ------------------------------------------------------------------
    def _evaluate_offer(self, consumer: Consumer, provider: Provider) -> Tuple[float, bool]:
        """Net per-round surplus at ``provider`` and whether they'd tunnel.

        Delegates to the pure decision rule in :mod:`tussle.econ.decision`
        shared with the vectorized backend.
        """
        return effective_offer(
            wtp=consumer.wtp,
            values_server=consumer.values_server(),
            server_value=consumer.server_value,
            can_tunnel=consumer.can_tunnel,
            tunnel_cost=consumer.tunnel_cost,
            price=provider.price,
            business_price=provider.business_price,  # type: ignore[arg-type]
            tiered=provider.tiered,
            detects_tunnels=provider.detects_tunnels,
            server_prohibited_without_tier=self.server_prohibited_without_tier,
        )

    @staticmethod
    def _pricing_signature(provider: Provider) -> Tuple:
        """Everything the offer depends on that can change between rounds."""
        return (provider.price, provider.business_price,
                provider.detects_tunnels)

    def _provider_offers(self, name: str) -> List[Tuple[float, bool]]:
        """Per-consumer offer column for one provider, cached.

        Consumer attributes entering the offer (wtp, segment, tunnel
        repertoire) are static, so the column stays valid until the
        provider's pricing signature changes — providers whose price did
        not move this round cost nothing to re-evaluate.
        """
        provider = self.providers[name]
        signature = self._pricing_signature(provider)
        if self._offer_signatures.get(name) != signature:
            self._offer_cache[name] = [
                self._evaluate_offer(consumer, provider)
                for consumer in self.consumers
            ]
            self._offer_signatures[name] = signature
        return self._offer_cache[name]

    def _best_offer(self, index: int, consumer: Consumer,
                    free_switch: bool = False
                    ) -> Tuple[Optional[str], float, float, bool]:
        """Best provider for this consumer net of switching cost.

        Returns ``(name, net_surplus, raw_surplus, tunnels)`` where the
        raw surplus/tunnel flag describe the chosen provider *before*
        taste and switching-cost adjustments — exactly what the round
        accounting needs, so the winning offer is never recomputed.
        """
        current = consumer.provider
        best_name: Optional[str] = None
        best_surplus = float("-inf")
        best_raw = 0.0
        best_tunnels = False
        for name in sorted(self.providers):
            raw, tunnels = self._provider_offers(name)[index]
            surplus = raw
            surplus += self._taste.get((consumer.name, name), 0.0)
            if not free_switch and current is not None and name != current:
                surplus -= consumer.switching_cost
            if surplus > best_surplus + TIE_EPSILON:
                best_surplus = surplus
                best_name = name
                best_raw = raw
                best_tunnels = tunnels
        return best_name, best_surplus, best_raw, best_tunnels

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def step(self) -> MarketRound:
        """Run one market round and return its record."""
        index = len(self.history)
        # 1. Providers adjust prices.
        prices = {name: p.price for name, p in self.providers.items()}
        shares = {
            name: p.market_share(len(self.consumers))
            for name, p in self.providers.items()
        }
        pricing_moves = 0
        for name, provider in sorted(self.providers.items()):
            strategy = self.strategies.get(name)
            if strategy is not None:
                strategy.adjust(provider, prices, shares[name])
                pricing_moves += 1

        # 2. Consumers re-evaluate and possibly switch.
        switches = 0
        total_surplus = 0.0
        revenue: Dict[str, float] = {name: 0.0 for name in self.providers}
        tunnelling = 0
        for consumer_index, consumer in enumerate(self.consumers):
            best_name, _, surplus, tunnels = self._best_offer(
                consumer_index, consumer)
            if best_name is None:
                continue
            if consumer.provider != best_name:
                if consumer.provider is not None:
                    self.providers[consumer.provider].subscribers.discard(consumer.name)
                    consumer.surplus -= consumer.switching_cost
                    total_surplus -= consumer.switching_cost
                    consumer.switches += 1
                    switches += 1
                consumer.provider = best_name
                self.providers[best_name].subscribers.add(consumer.name)
            provider = self.providers[consumer.provider]
            consumer.tunnelling = tunnels
            if tunnels:
                tunnelling += 1
            # Leave if even the best offer is negative-surplus.
            if surplus < 0:
                provider.subscribers.discard(consumer.name)
                consumer.provider = None
                continue
            consumer.surplus += surplus
            total_surplus += surplus
            paid = self._amount_paid(consumer, provider, tunnels)
            revenue[provider.name] += paid

        # 3. Accounting.
        for name, provider in self.providers.items():
            provider.record_round(revenue[name], len(provider.subscribers))
        record = MarketRound(
            index=index,
            mean_price=sum(p.price for p in self.providers.values()) / len(self.providers),
            switches=switches,
            consumer_surplus=total_surplus,
            provider_profit=sum(
                revenue[name] - p.unit_cost * len(p.subscribers)
                for name, p in self.providers.items()
            ),
            tunnelling_consumers=tunnelling,
            shares={
                name: p.market_share(len(self.consumers))
                for name, p in self.providers.items()
            },
        )
        self.history.append(record)
        self._obs.round(record, pricing_moves)
        return record

    def run(self, rounds: int) -> List[MarketRound]:
        for _ in range(rounds):
            self.step()
        return self.history

    def _amount_paid(self, consumer: Consumer, provider: Provider, tunnels: bool) -> float:
        return amount_paid(
            wtp=consumer.wtp,
            values_server=consumer.values_server(),
            server_value=consumer.server_value,
            tunnels=tunnels,
            price=provider.price,
            business_price=provider.business_price,  # type: ignore[arg-type]
            tiered=provider.tiered,
            server_prohibited_without_tier=self.server_prohibited_without_tier,
        )

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def total_switches(self) -> int:
        return sum(r.switches for r in self.history)

    def mean_price(self) -> float:
        if not self.history:
            return 0.0
        return self.history[-1].mean_price

    def total_consumer_surplus(self) -> float:
        return sum(r.consumer_surplus for r in self.history)

    def total_provider_profit(self) -> float:
        return sum(r.provider_profit for r in self.history)

    def subscribed_fraction(self) -> float:
        if not self.consumers:
            return 0.0
        subscribed = sum(1 for c in self.consumers if c.provider is not None)
        return subscribed / len(self.consumers)
