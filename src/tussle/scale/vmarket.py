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

Offer columns are cached by pricing signature (price, business price,
tunnel detection) and recomputed only when a signature first appears,
so equal-priced providers share one column.  Pricing reads round-start
shares from the previous round's :class:`~tussle.econ.market.MarketRound`
(the assignment does not move between rounds), so the subscriber count
runs once per round; only round 0 counts the initial assignment.  Each
round reports the scalar market's ``econ.market`` span and counters
through the same :class:`~tussle.econ.market.MarketObserver`, plus its
own ``scale.kernel`` counters.

A round's per-consumer scratch lives in a :class:`_RoundWork` that
:meth:`VectorMarket.run` allocates once for all its rounds and drops
when it returns; a bare :meth:`VectorMarket.step` gets a fresh one.
The state columns of :class:`~tussle.scale.arrays.MarketArrays`
(assignment, surplus, switches, tunnelling) are updated in place.
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


class _RoundWork:
    """Per-consumer buffers for one round's kernels, reused across rounds.

    :meth:`VectorMarket.run` allocates one for all its rounds and drops
    it when it returns, so no N-length scratch outlives a run (L01 and
    L02 build the next market while the last one is still bound).
    """

    def __init__(self, n: int):
        self.column = np.empty(n, dtype=np.int64)
        self.raw = np.empty(n, dtype=np.float64)
        words = [np.empty(n, dtype=np.int64) for _ in range(4)]
        self.scan = (words, [np.empty(n, dtype=bool) for _ in range(3)])
        # The scan's words are dead once best_provider returns; the
        # settlement's float columns reuse them.
        self.credit, self.price, self.business_price, self.paid = (
            word.view(np.float64) for word in words)
        self.masks = (np.empty(n, dtype=bool), np.empty(n, dtype=bool))
        self.stays = np.empty(n, dtype=bool)
        self.slots = np.empty(n, dtype=np.int64)


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
        self._offer_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._work: Optional[_RoundWork] = None
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
    def _offer_columns(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Each provider's (surplus, tunnels) columns, in sorted-name order.

        Columns are cached by pricing signature, so providers at the same
        rates share one pair; the cache keeps only the signatures in use.
        """
        cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray]] = {}
        offers: List[np.ndarray] = []
        tunnels: List[np.ndarray] = []
        for name in self._sorted_names:
            provider = self.providers[name]
            signature = (provider.price, provider.business_price,
                         provider.detects_tunnels)
            columns = cache.get(signature) or self._offer_cache.get(signature)
            if columns is None:
                columns = kernels.effective_offer_column(
                    self.arrays,
                    price=provider.price,
                    business_price=provider.business_price,
                    detects_tunnels=provider.detects_tunnels,
                    server_prohibited_without_tier=(
                        self.server_prohibited_without_tier),
                )
            cache[signature] = columns
            offers.append(columns[0])
            tunnels.append(columns[1])
        self._offer_cache = cache
        return offers, tunnels

    def _initial_assignment(self) -> None:
        """Round-0 free choice for every unassigned consumer."""
        offers, tunnels = self._offer_columns()
        best_column, _, _ = kernels.best_provider(
            offers, tunnels, self.arrays.taste, self.arrays.switching_cost,
            self.arrays.assignment, free_switch=True)
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
            self.arrays.assignment + 1, self.arrays.n_providers))

    def step(self) -> MarketRound:
        """Run one market round and return its record."""
        arrays = self.arrays
        index = len(self.history)
        n = len(arrays)
        work = self._work if self._work is not None else _RoundWork(n)

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
        offers, tunnels = self._offer_columns()
        best_column, best_raw, best_tunnels = kernels.best_provider(
            offers, tunnels, arrays.taste, arrays.switching_cost,
            arrays.assignment, out=(work.column, work.raw, arrays.tunnelling),
            work=work.scan)
        _, switched = kernels.switching_masks(
            arrays.assignment, best_column, out=work.masks)
        stays = np.greater_equal(best_raw, 0.0, out=work.stays)
        # The round credit: the best offer for a consumer who stays, +0.0
        # for one who leaves (raw offers are never -0.0).
        credit = np.maximum(best_raw, 0.0, out=work.credit)
        switches = int(np.count_nonzero(switched))
        tunnelling = int(np.count_nonzero(best_tunnels))
        debit = None
        if switches:
            debit = arrays.switching_cost * switched
            arrays.switches += switched
        kernels.apply_surplus_updates(arrays.surplus, debit, credit)

        # The scalar loop interleaves, per consumer, the switching-cost
        # debit and the surplus credit; two columns flattened row-major
        # replay that exact accumulation order.  Without switches every
        # debit is +0.0, a bitwise no-op on the running total, so the
        # credits alone replay it.
        if debit is None:
            total_surplus = kernels.ordered_total(credit)
        else:
            deltas = np.empty((n, 2), dtype=np.float64)
            np.subtract(0.0, debit, out=deltas[:, 0])
            np.copyto(deltas[:, 1], credit)
            total_surplus = kernels.ordered_total(deltas)

        # Each consumer's rates, gathered from their chosen provider's
        # column (every column is in range, so "clip" clips nothing and
        # lets take write straight into the buffer); an untiered
        # provider's business rate is NaN.  Without a consumer who values
        # a server nobody can pay the tier, so that column is skipped.
        providers = [self.providers[name] for name in self._sorted_names]
        price = np.take(np.array([p.price for p in providers]), best_column,
                        out=work.price, mode="clip")
        business_price = None
        if arrays.values_server.any():
            business_price = np.take(
                np.array([np.nan if p.business_price is None
                          else p.business_price for p in providers]),
                best_column, out=work.business_price, mode="clip")
        paid = kernels.amount_paid_values(
            arrays.wtp, arrays.server_value, arrays.values_server,
            best_tunnels, price=price, business_price=business_price,
            server_prohibited_without_tier=(
                self.server_prohibited_without_tier),
            out=work.paid,
        )
        # A stayer's slot is its column + 1, a leaver's 0 (dropped).
        slots = np.add(best_column, 1, out=work.slots)
        np.multiply(slots, stays, out=slots)
        np.subtract(slots, 1, out=arrays.assignment)
        revenue_columns = kernels.per_provider_revenue(
            paid, slots, arrays.n_providers)
        revenue = {
            name: float(revenue_columns[j])
            for j, name in enumerate(self._sorted_names)
        }

        # 3. Accounting — same iteration shapes as the scalar backend so
        # the Python-level float folds (mean, profit sum) match bitwise.
        counts_after = kernels.subscriber_counts(slots, arrays.n_providers)
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
        self._work = _RoundWork(len(self.arrays))
        try:
            for _ in range(rounds):
                self.step()
        finally:
            self._work = None
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
