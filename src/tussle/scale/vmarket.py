"""VectorMarket: the NumPy backend for the access market.

Drop-in for :class:`tussle.econ.market.Market` on the round interface —
same constructor shape, same :class:`~tussle.econ.market.MarketRound`
records, same measurement helpers — but the consumer side lives in
:class:`~tussle.scale.arrays.MarketArrays` columns and each round runs
through the kernels in :mod:`tussle.scale.kernels`.  The parity harness
(:mod:`tussle.scale.parity`) asserts the two backends emit identical
round records from identical specs.

Division of labour per round:

* **Providers stay objects.**  Price evolution runs the *same*
  :class:`~tussle.econ.pricing.PricingStrategy` instances over the same
  :class:`~tussle.econ.agents.Provider` objects in the same sorted
  order, so price trajectories are shared with the scalar backend by
  construction, not by re-implementation.  (Provider ``subscribers``
  sets are *not* maintained — membership lives in the assignment
  column; read shares from the round records or :meth:`shares`.)
* **Consumers are columns.**  Choice, switching, tunnelling, surplus
  and revenue all run as whole-population kernels.  Payments are one
  kernel call over per-consumer price columns gathered by each
  consumer's chosen provider, and revenue is one ordered scatter.

Offer columns are cached per provider and recomputed only when that
provider's pricing signature changes, mirroring the scalar market's
offer cache.  Pricing reads round-start shares from the previous
round's :class:`~tussle.econ.market.MarketRound` (the assignment does
not move between rounds), so the subscriber count runs once per round;
only round 0 counts the initial assignment.  Each round reports the
scalar market's ``econ.market`` span and counters through the same
:class:`~tussle.econ.market.MarketObserver`, plus its own
``scale.kernel`` counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..canon import ordered_sum
from ..econ.agents import Consumer, Provider
from ..econ.market import MarketObserver, MarketRound
from ..econ.pricing import PricingStrategy
from ..errors import MarketError, ScaleError
from ..obs.runtime import current as _obs_current
from . import kernels
from .arrays import ConsumerBatch, MarketArrays

__all__ = ["VectorMarket"]


class VectorMarket:
    """A round-based access market over structure-of-arrays consumers.

    Parameters mirror :class:`~tussle.econ.market.Market`; the consumer
    population arrives either as scalar ``Consumer`` objects
    (``consumers=...``, snapshotted into columns) or as a
    :class:`~tussle.scale.arrays.ConsumerBatch` (``batch=...``, the
    large-N path that never materializes per-consumer objects).
    """

    def __init__(
        self,
        providers: Sequence[Provider],
        consumers: Optional[Sequence[Consumer]] = None,
        strategies: Optional[Dict[str, PricingStrategy]] = None,
        server_prohibited_without_tier: bool = True,
        preference_noise: float = 0.0,
        seed: int = 0,
        batch: Optional[ConsumerBatch] = None,
    ):
        if not providers:
            raise MarketError("market needs at least one provider")
        names = [p.name for p in providers]
        if len(set(names)) != len(names):
            raise MarketError("provider names must be unique")
        if (consumers is None) == (batch is None):
            raise ScaleError(
                "VectorMarket takes exactly one of consumers= or batch=")
        self.providers: Dict[str, Provider] = {p.name: p for p in providers}
        self.strategies = dict(strategies or {})
        self.server_prohibited_without_tier = server_prohibited_without_tier
        self._sorted_names: List[str] = sorted(self.providers)
        if batch is not None:
            self.arrays = MarketArrays.from_batch(
                batch, self._sorted_names,
                preference_noise=preference_noise, seed=seed)
        else:
            self.arrays = MarketArrays.from_consumers(
                consumers, self._sorted_names,
                preference_noise=preference_noise, seed=seed)
        self.history: List[MarketRound] = []
        self._offer_cache: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._offer_signatures: Dict[str, Tuple] = {}
        self._obs = MarketObserver()
        ctx = _obs_current()
        if ctx.metrics.enabled:
            scope = ctx.metrics.scope("scale.kernel")
            self._c_rounds = scope.counter("rounds")
            self._c_switches = scope.counter("switches")
            self._h_bytes = scope.histogram("kernel_bytes")
        else:
            self._c_rounds = None
            self._c_switches = None
            self._h_bytes = None
        self._initial_assignment()

    # ------------------------------------------------------------------
    # Offers
    # ------------------------------------------------------------------
    def _provider_offers(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Cached (surplus, tunnels) columns for one provider."""
        provider = self.providers[name]
        signature = (provider.price, provider.business_price,
                     provider.detects_tunnels)
        if self._offer_signatures.get(name) != signature:
            self._offer_cache[name] = kernels.effective_offer_column(
                self.arrays,
                price=provider.price,
                business_price=provider.business_price,
                detects_tunnels=provider.detects_tunnels,
                server_prohibited_without_tier=(
                    self.server_prohibited_without_tier),
            )
            self._offer_signatures[name] = signature
        return self._offer_cache[name]

    def _offer_columns(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        offers: List[np.ndarray] = []
        tunnels: List[np.ndarray] = []
        for name in self._sorted_names:
            surplus_column, tunnel_column = self._provider_offers(name)
            offers.append(surplus_column)
            tunnels.append(tunnel_column)
        return offers, tunnels

    def _choose(self, free_switch: bool = False
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        offers, tunnels = self._offer_columns()
        return kernels.best_provider(
            offers, tunnels, self.arrays.taste,
            self.arrays.switching_cost, self.arrays.assignment,
            free_switch=free_switch,
        )

    def _initial_assignment(self) -> None:
        """Round-0 free choice for every unassigned consumer."""
        best_column, _, _ = self._choose(free_switch=True)
        unassigned = self.arrays.assignment < 0
        self.arrays.assignment = np.where(
            unassigned, best_column, self.arrays.assignment)

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _shares(self, counts: np.ndarray) -> Dict[str, float]:
        n = len(self.arrays)
        column_of = {name: j for j, name in enumerate(self._sorted_names)}
        return {
            name: (int(counts[column_of[name]]) / n if n > 0 else 0.0)
            for name in self.providers
        }

    def shares(self) -> Dict[str, float]:
        """Each provider's current share of all consumers, in provider order.

        The scalar market's ``Provider.market_share``, read from the
        assignment column; after a round it equals that round's
        ``MarketRound.shares``.
        """
        return self._shares(kernels.subscriber_counts(
            self.arrays.assignment, self.arrays.n_providers))

    def step(self) -> MarketRound:
        """Run one market round and return its record."""
        arrays = self.arrays
        index = len(self.history)
        n = len(arrays)

        # 1. Providers adjust prices (identical to the scalar phase).  The
        # assignment has not moved since the last round's record.
        prices = {name: p.price for name, p in self.providers.items()}
        shares = self.history[-1].shares if self.history else self.shares()
        pricing_moves = 0
        for name, provider in sorted(self.providers.items()):
            strategy = self.strategies.get(name)
            if strategy is not None:
                strategy.adjust(provider, prices, shares[name])
                pricing_moves += 1

        # 2. Whole-population choice, switching and settlement.
        best_column, best_raw, best_tunnels = self._choose()
        _, switched = kernels.switching_masks(arrays.assignment, best_column)
        stays = best_raw >= 0.0

        kernels.apply_surplus_updates(
            arrays.surplus, best_raw, switched, stays, arrays.switching_cost)
        arrays.switches += switched
        arrays.tunnelling = best_tunnels
        arrays.assignment = np.where(stays, best_column, -1)

        switches = int(np.count_nonzero(switched))
        tunnelling = int(np.count_nonzero(best_tunnels))

        # The scalar loop interleaves, per consumer, the switching-cost
        # debit and the surplus credit; two columns flattened row-major
        # replay that exact accumulation order.
        deltas = np.zeros((n, 2), dtype=np.float64)
        np.negative(arrays.switching_cost, out=deltas[:, 0], where=switched)
        np.copyto(deltas[:, 1], best_raw, where=stays)
        total_surplus = kernels.ordered_total(deltas)

        # Each consumer's rates, gathered from their chosen provider's
        # column; an untiered provider's business rate is NaN.
        providers = [self.providers[name] for name in self._sorted_names]
        price_of = np.array([p.price for p in providers], dtype=np.float64)
        business_of = np.array(
            [np.nan if p.business_price is None else p.business_price
             for p in providers], dtype=np.float64)
        paid = kernels.amount_paid_values(
            arrays.wtp, arrays.server_value, arrays.values_server,
            best_tunnels,
            price=price_of[best_column],
            business_price=business_of[best_column],
            server_prohibited_without_tier=(
                self.server_prohibited_without_tier),
        )
        revenue_columns = kernels.per_provider_revenue(
            paid, best_column, stays, arrays.n_providers)
        revenue = {
            name: float(revenue_columns[j])
            for j, name in enumerate(self._sorted_names)
        }

        # 3. Accounting — same iteration shapes as the scalar backend so
        # the Python-level float folds (mean, profit sum) match bitwise.
        counts_after = kernels.subscriber_counts(
            arrays.assignment, arrays.n_providers)
        column_of = {name: j for j, name in enumerate(self._sorted_names)}
        for name, provider in self.providers.items():
            provider.record_round(
                revenue[name], int(counts_after[column_of[name]]))
        record = MarketRound(
            index=index,
            mean_price=sum(p.price for p in self.providers.values())
            / len(self.providers),
            switches=switches,
            consumer_surplus=total_surplus,
            provider_profit=sum(
                revenue[name] - p.unit_cost * int(counts_after[column_of[name]])
                for name, p in self.providers.items()
            ),
            tunnelling_consumers=tunnelling,
            shares=self._shares(counts_after),
        )
        self.history.append(record)
        self._obs.round(record, pricing_moves)
        if self._c_rounds is not None:
            self._c_rounds.inc()
            self._c_switches.inc(switches)
            self._h_bytes.observe(float(kernels.round_kernel_bytes(
                n, arrays.n_providers, arrays.taste is not None)))
        return record

    def run(self, rounds: int) -> List[MarketRound]:
        for _ in range(rounds):
            self.step()
        return self.history

    # ------------------------------------------------------------------
    # Measurements (same surface as the scalar Market)
    # ------------------------------------------------------------------
    def total_switches(self) -> int:
        return sum(r.switches for r in self.history)

    def mean_price(self) -> float:
        if not self.history:
            return 0.0
        return self.history[-1].mean_price

    def total_consumer_surplus(self) -> float:
        return ordered_sum(r.consumer_surplus for r in self.history)

    def total_provider_profit(self) -> float:
        return ordered_sum(r.provider_profit for r in self.history)

    def subscribed_fraction(self) -> float:
        n = len(self.arrays)
        if n == 0:
            return 0.0
        return int(np.count_nonzero(self.arrays.assignment >= 0)) / n
