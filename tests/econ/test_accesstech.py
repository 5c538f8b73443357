"""Tests for the broadband facilities market (E03 substrate)."""

import random

import pytest

from tussle.errors import MarketError
from tussle.econ.accesstech import (
    AccessRegime,
    Facility,
    access_market_spec,
    build_service_providers,
)
from tussle.econ.demand import Segment, UniformWtp
from tussle.econ.market import Market
from tussle.econ.pricing import MonopolyPricing, UndercutPricing


DUOPOLY = [Facility("telco", wholesale_fee=8.0), Facility("cable", wholesale_fee=8.0)]


def scalar_access_market(facilities, regime, **kwargs):
    """The scalar market of one access cell, its population as objects."""
    spec = access_market_spec(facilities, regime, **kwargs)
    return Market(consumers=spec.pop("batch").to_consumers(), **spec)


class TestProviderConstruction:
    def test_closed_regime_one_retailer_per_facility(self):
        providers, strategies = build_service_providers(DUOPOLY, AccessRegime.CLOSED)
        assert len(providers) == 2
        assert all(isinstance(s, MonopolyPricing) for s in strategies.values())

    def test_natural_open_regime_many_retailers(self):
        providers, strategies = build_service_providers(
            DUOPOLY, AccessRegime.OPEN_NATURAL_BOUNDARY, isps_per_open_facility=4)
        assert len(providers) == 8
        assert all(isinstance(s, UndercutPricing) for s in strategies.values())

    def test_wrong_boundary_entrants_carry_fatter_costs(self):
        providers, strategies = build_service_providers(
            DUOPOLY, AccessRegime.OPEN_WRONG_BOUNDARY)
        by_name = {p.name: p for p in providers}
        assert by_name["telco-isp1"].unit_cost > by_name["telco-isp0"].unit_cost
        assert isinstance(strategies["telco-isp0"], MonopolyPricing)
        assert isinstance(strategies["telco-isp1"], UndercutPricing)

    def test_retail_cost_includes_wholesale_fee(self):
        cheap = [Facility("muni", wholesale_fee=5.0)]
        dear = [Facility("telco", wholesale_fee=9.0)]
        cheap_providers, _ = build_service_providers(cheap, AccessRegime.CLOSED)
        dear_providers, _ = build_service_providers(dear, AccessRegime.CLOSED)
        assert cheap_providers[0].unit_cost < dear_providers[0].unit_cost

    def test_needs_facilities(self):
        with pytest.raises(MarketError):
            build_service_providers([], AccessRegime.CLOSED)


class TestMarketOutcomes:
    def test_open_natural_cheaper_than_closed(self):
        closed = scalar_access_market(DUOPOLY, AccessRegime.CLOSED,
                                      n_consumers=100, seed=0)
        closed.run(25)
        open_market = scalar_access_market(DUOPOLY,
                                           AccessRegime.OPEN_NATURAL_BOUNDARY,
                                           n_consumers=100, seed=0)
        open_market.run(25)
        assert open_market.mean_price() < closed.mean_price()

    def test_more_facilities_more_surplus(self):
        few = scalar_access_market(DUOPOLY[:1], AccessRegime.CLOSED,
                                   n_consumers=100, seed=0)
        few.run(25)
        many = scalar_access_market(
            [Facility(f"f{i}", wholesale_fee=8.0) for i in range(4)],
            AccessRegime.OPEN_NATURAL_BOUNDARY, n_consumers=100, seed=0)
        many.run(25)
        assert many.total_consumer_surplus() > few.total_consumer_surplus()

    def test_market_is_deterministic_under_seed(self):
        def run():
            market = scalar_access_market(DUOPOLY, AccessRegime.CLOSED,
                                          n_consumers=50, seed=5)
            market.run(10)
            return market.mean_price(), market.total_consumer_surplus()

        assert run() == run()


class TestPopulation:
    def test_batch_replays_the_consumer_loop(self):
        """The batch holds the draws a Consumer-by-Consumer loop makes."""
        spec = access_market_spec(DUOPOLY, AccessRegime.CLOSED,
                                  n_consumers=47, seed=5)
        rng = random.Random(5)
        wtp = UniformWtp(25.0, 95.0)
        expected = [wtp.sample(rng) for _ in range(47)]
        consumers = spec["batch"].to_consumers()
        assert [c.wtp for c in consumers] == expected
        assert [c.name for c in consumers][:2] == ["home0", "home1"]
        assert all(c.segment is Segment.BASIC and c.switching_cost == 2.0
                   and c.provider is None and not c.can_tunnel
                   for c in consumers)
        assert spec["preference_noise"] == 2.0
