"""Kernel-level tests: each kernel equals its scalar counterpart bitwise."""

import random

import numpy as np

from tussle.econ.decision import TIE_EPSILON, amount_paid, effective_offer
from tussle.scale import kernels
from tussle.scale.arrays import ConsumerBatch, MarketArrays
from tussle.scale.large import (
    lockin_market_at_scale,
    value_pricing_market_at_scale,
)


def random_population(n=64, seed=5):
    rng = random.Random(seed)
    values_server = np.array([rng.random() < 0.4 for _ in range(n)])
    batch = ConsumerBatch(
        wtp=np.array([rng.uniform(10.0, 80.0) for _ in range(n)]),
        server_value=np.where(values_server, 25.0, 0.0),
        values_server=values_server,
        switching_cost=np.array([rng.uniform(0.0, 5.0) for _ in range(n)]),
        can_tunnel=np.array([rng.random() < 0.5 for _ in range(n)]),
        tunnel_cost=np.array([rng.uniform(1.0, 4.0) for _ in range(n)]),
    )
    return MarketArrays.from_batch(batch, ["p0", "p1", "p2"])


class TestEffectiveOfferColumn:
    def test_matches_scalar_rule_bitwise(self):
        arrays = random_population()
        for business_price, detects, prohibited in (
            (None, False, True),
            (45.0, False, True),
            (45.0, True, True),
            (45.0, False, False),
        ):
            surplus, tunnels = kernels.effective_offer_column(
                arrays, price=30.0, business_price=business_price,
                detects_tunnels=detects,
                server_prohibited_without_tier=prohibited)
            for i in range(len(arrays)):
                expected_surplus, expected_tunnel = effective_offer(
                    wtp=float(arrays.wtp[i]),
                    values_server=bool(arrays.values_server[i]),
                    server_value=float(arrays.server_value[i]),
                    can_tunnel=bool(arrays.can_tunnel[i]),
                    tunnel_cost=float(arrays.tunnel_cost[i]),
                    price=30.0,
                    business_price=business_price,
                    tiered=business_price is not None,
                    detects_tunnels=detects,
                    server_prohibited_without_tier=prohibited,
                )
                assert surplus[i] == expected_surplus
                assert bool(tunnels[i]) == expected_tunnel


class TestAmountPaidValues:
    def test_matches_scalar_rule_bitwise(self):
        arrays = random_population(seed=9)
        tunnels = arrays.can_tunnel & arrays.values_server
        for business_price, prohibited in ((None, True), (45.0, True),
                                           (45.0, False)):
            paid = kernels.amount_paid_values(
                arrays.wtp, arrays.server_value, arrays.values_server,
                tunnels, price=30.0, business_price=business_price,
                server_prohibited_without_tier=prohibited)
            for i in range(len(arrays)):
                assert paid[i] == amount_paid(
                    wtp=float(arrays.wtp[i]),
                    values_server=bool(arrays.values_server[i]),
                    server_value=float(arrays.server_value[i]),
                    tunnels=bool(tunnels[i]),
                    price=30.0,
                    business_price=business_price,
                    tiered=business_price is not None,
                    server_prohibited_without_tier=prohibited,
                )


    def test_per_consumer_rates_over_mixed_providers(self):
        """One call over gathered price columns, some providers tiered
        and some not (NaN business rate), equals the scalar rule."""
        arrays = random_population(n=90, seed=4)
        rates = [(30.0, None), (28.0, 41.0), (33.0, 45.0), (25.0, None)]
        rng = random.Random(6)
        column = np.array([rng.randrange(len(rates)) for _ in range(90)])
        tunnels = arrays.can_tunnel & np.array(
            [rng.random() < 0.5 for _ in range(90)])
        price_of = np.array([price for price, _ in rates])
        business_of = np.array(
            [np.nan if tier is None else tier for _, tier in rates])
        for prohibited in (True, False):
            paid = kernels.amount_paid_values(
                arrays.wtp, arrays.server_value, arrays.values_server,
                tunnels, price=price_of[column],
                business_price=business_of[column],
                server_prohibited_without_tier=prohibited)
            for i in range(90):
                price, tier = rates[column[i]]
                assert paid[i] == amount_paid(
                    wtp=float(arrays.wtp[i]),
                    values_server=bool(arrays.values_server[i]),
                    server_value=float(arrays.server_value[i]),
                    tunnels=bool(tunnels[i]),
                    price=price,
                    business_price=tier,
                    tiered=tier is not None,
                    server_prohibited_without_tier=prohibited,
                )


class TestBestProvider:
    def test_equal_offers_pick_first_column(self):
        """The tie-breaking contract: equal surplus goes to the first
        (alphabetically-first) provider column."""
        n = 4
        offers = [np.full(n, 7.0), np.full(n, 7.0)]
        tunnels = [np.zeros(n, bool), np.zeros(n, bool)]
        column, raw, tun = kernels.best_provider(
            offers, tunnels, None, np.zeros(n), np.full(n, -1, np.int64))
        assert list(column) == [0] * n
        assert list(raw) == [7.0] * n
        assert not tun.any()

    def test_sub_epsilon_improvement_does_not_displace(self):
        n = 3
        offers = [np.full(n, 7.0), np.full(n, 7.0 + TIE_EPSILON / 2)]
        tunnels = [np.zeros(n, bool), np.zeros(n, bool)]
        column, _, _ = kernels.best_provider(
            offers, tunnels, None, np.zeros(n), np.full(n, -1, np.int64))
        assert list(column) == [0] * n

    def test_switching_cost_charged_only_for_leaving(self):
        offers = [np.array([10.0, 10.0]), np.array([11.0, 11.0])]
        tunnels = [np.zeros(2, bool), np.zeros(2, bool)]
        # Consumer 0 sits at column 1 (no charge to stay), consumer 1 at
        # column 0 (charged 5 to move to the better column 1 -> stays).
        assignment = np.array([1, 0], dtype=np.int64)
        column, _, _ = kernels.best_provider(
            offers, tunnels, None, np.full(2, 5.0), assignment)
        assert list(column) == [1, 0]

    def test_free_switch_ignores_switching_cost(self):
        offers = [np.array([10.0]), np.array([11.0])]
        tunnels = [np.zeros(1, bool), np.zeros(1, bool)]
        column, _, _ = kernels.best_provider(
            offers, tunnels, None, np.full(1, 5.0),
            np.zeros(1, dtype=np.int64), free_switch=True)
        assert list(column) == [1]

    def test_inputs_are_left_unchanged(self):
        arrays = random_population(n=50, seed=12)
        offers, tunnels = [], []
        for price in (30.0, 29.0, 31.0):
            surplus, tunnel = kernels.effective_offer_column(
                arrays, price=price, business_price=42.0,
                detects_tunnels=False, server_prohibited_without_tier=True)
            offers.append(surplus)
            tunnels.append(tunnel)
        taste = np.array([[0.5 * ((i + j) % 3) - 0.5 for j in range(3)]
                          for i in range(50)])
        assignment = np.array([(i % 4) - 1 for i in range(50)],
                              dtype=np.int64)
        inputs = (offers, tunnels, taste, arrays.switching_cost, assignment)
        before = [np.copy(x) for x in (*offers, *tunnels, taste,
                                        arrays.switching_cost, assignment)]
        for free_switch in (False, True):
            column, raw, tun = kernels.best_provider(
                *inputs, free_switch=free_switch)
            after = [*offers, *tunnels, taste, arrays.switching_cost,
                     assignment]
            for old, new in zip(before, after):
                assert old.tobytes() == new.tobytes()
            for out in (column, raw, tun):
                assert not any(np.shares_memory(out, x) for x in after)

    def test_cached_offer_columns_stay_fresh_after_rounds(self):
        """The in-place round updates never write into the offer cache:
        after k rounds every cached column equals a fresh one."""
        for market in (lockin_market_at_scale(3.0, 300, seed=2),
                       value_pricing_market_at_scale(
                           3, True, False, n_consumers=300, seed=2)):
            market.run(6)
            # The cache is keyed by pricing signature and holds exactly
            # the signatures the providers are at now.
            assert set(market._offer_cache) == {
                (p.price, p.business_price, p.detects_tunnels)
                for p in market.providers.values()}
            for signature, cached in market._offer_cache.items():
                price, business_price, detects_tunnels = signature
                fresh = kernels.effective_offer_column(
                    market.arrays, price=price,
                    business_price=business_price,
                    detects_tunnels=detects_tunnels,
                    server_prohibited_without_tier=(
                        market.server_prohibited_without_tier))
                assert cached[0].tobytes() == fresh[0].tobytes()
                assert cached[1].tobytes() == fresh[1].tobytes()

    def test_taste_breaks_symmetry(self):
        offers = [np.full(2, 7.0), np.full(2, 7.0)]
        tunnels = [np.zeros(2, bool), np.zeros(2, bool)]
        taste = np.array([[0.0, 1.0], [1.0, 0.0]])
        column, _, _ = kernels.best_provider(
            offers, tunnels, taste, np.zeros(2), np.full(2, -1, np.int64))
        assert list(column) == [1, 0]


class TestMasksAndReductions:
    def test_switching_masks(self):
        assignment = np.array([0, 1, -1, 2], dtype=np.int64)
        best = np.array([0, 0, 0, 1], dtype=np.int64)
        moved, switched = kernels.switching_masks(assignment, best)
        assert list(moved) == [False, True, True, True]
        assert list(switched) == [False, True, False, True]

    def test_ordered_total_matches_sequential_sum(self):
        rng = random.Random(3)
        deltas = np.array(
            [[rng.uniform(-1e6, 1e6) for _ in range(2)] for _ in range(257)])
        total = 0.0
        for row in deltas:
            total += row[0]
            total += row[1]
        assert kernels.ordered_total(deltas) == total

    def test_ordered_total_empty(self):
        assert kernels.ordered_total(np.empty((0, 2))) == 0.0

    def test_per_provider_revenue_matches_sequential_walk(self):
        """Leaving consumers and column -1 (no provider) pay nobody; the
        rest accumulate in consumer order, as in the scalar walk."""
        rng = random.Random(8)
        for n, p, lowest in ((101, 3, 0), (211, 4, -1), (0, 3, -1)):
            paid = np.array([rng.uniform(1.0, 60.0) for _ in range(n)])
            best = np.array([rng.randrange(lowest, p) for _ in range(n)],
                            dtype=np.int64)
            stays = np.array([rng.random() < 0.8 for _ in range(n)],
                             dtype=bool)
            expected = [0.0] * p
            for i in range(n):
                if stays[i] and best[i] >= 0:
                    expected[best[i]] += paid[i]
            # The market's slots: column + 1 for a stayer, 0 for a leaver.
            slots = (best + 1) * stays
            revenue = kernels.per_provider_revenue(paid, slots, p)
            assert list(revenue) == expected

    def test_subscriber_counts_ignore_unsubscribed(self):
        assignment = np.array([0, 0, 1, -1, -1, 2], dtype=np.int64)
        assert list(kernels.subscriber_counts(assignment + 1, 4)) \
            == [2, 1, 1, 0]

    def test_round_kernel_bytes_scales_with_population(self):
        small = kernels.round_kernel_bytes(1_000, 3, True)
        big = kernels.round_kernel_bytes(10_000, 3, True)
        assert big == 10 * small > 0
