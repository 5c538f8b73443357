"""VectorMarket behaviour: drop-in surface, batch/object equivalence, obs."""

import numpy as np
import pytest

from tussle import obs
from tussle.econ.accesstech import AccessRegime, access_market_spec
from tussle.econ.agents import Consumer, Provider
from tussle.econ.market import Market, MarketRound
from tussle.econ.pricing import UndercutPricing
from tussle.errors import MarketError, ScaleError
from tussle.experiments.e01_lockin import lockin_market_spec
from tussle.experiments.e02_value_pricing import value_pricing_market_spec
from tussle.experiments.e03_broadband import scenario_facilities
from tussle.scale.large import lockin_batch, lockin_market_at_scale
from tussle.scale.vmarket import VectorMarket


def two_provider_market(**kwargs):
    providers = [
        Provider(name="cheap", price=10.0, unit_cost=2.0),
        Provider(name="dear", price=30.0, unit_cost=2.0),
    ]
    consumers = [
        Consumer(name=f"c{i}", wtp=50.0, switching_cost=1.0)
        for i in range(4)
    ]
    return VectorMarket(providers=providers, consumers=consumers, **kwargs)


class TestConstruction:
    def test_needs_providers(self):
        with pytest.raises(MarketError):
            VectorMarket(providers=[], consumers=[])

    def test_unique_provider_names(self):
        providers = [Provider(name="p", price=1.0),
                     Provider(name="p", price=2.0)]
        with pytest.raises(MarketError):
            VectorMarket(providers=providers, consumers=[])

    def test_exactly_one_population_source(self):
        providers = [Provider(name="p", price=1.0)]
        batch = lockin_batch(1.0, 3, seed=0)
        with pytest.raises(ScaleError):
            VectorMarket(providers=providers)
        with pytest.raises(ScaleError):
            VectorMarket(providers=providers, consumers=[],
                         batch=batch)

    def test_initial_free_choice_picks_best(self):
        market = two_provider_market()
        assert list(market.arrays.assignment) == [0] * 4


class TestRounds:
    def test_step_emits_market_round(self):
        market = two_provider_market()
        record = market.step()
        assert isinstance(record, MarketRound)
        assert record.index == 0
        assert record.mean_price == 20.0
        assert set(record.shares) == {"cheap", "dear"}
        assert market.history == [record]

    def test_measurement_surface_matches_market(self):
        market = two_provider_market()
        market.run(3)
        assert len(market.history) == 3
        assert market.total_switches() >= 0
        assert market.mean_price() > 0
        assert market.subscribed_fraction() == 1.0
        assert market.total_consumer_surplus() > 0

    def test_negative_surplus_consumers_leave(self):
        providers = [Provider(name="only", price=60.0, unit_cost=2.0)]
        consumers = [Consumer(name="c0", wtp=10.0)]
        market = VectorMarket(providers=providers, consumers=consumers)
        market.step()
        assert market.subscribed_fraction() == 0.0
        assert market.arrays.provider_of(0) is None


class TestBatchEquivalence:
    def test_batch_and_object_paths_bitwise_identical(self):
        """A ConsumerBatch market equals the same population built from
        Consumer objects, round record for round record."""
        batch = lockin_batch(3.0, 50, seed=21)
        from_batch = lockin_market_at_scale(3.0, 50, seed=21)
        from_objects = VectorMarket(
            providers=[
                Provider(name="incumbent", price=45.0, unit_cost=5.0),
                Provider(name="rival-a", price=40.0, unit_cost=5.0),
                Provider(name="rival-b", price=42.0, unit_cost=5.0),
            ],
            consumers=batch.to_consumers(),
            strategies=dict(from_batch.strategies),
            seed=21,
        )
        # Strategies are stateless dataclasses here, but give each market
        # its own instances to be safe.
        from_batch.run(10)
        from_objects_history = from_objects.run(10)
        for ours, theirs in zip(from_batch.history, from_objects_history):
            assert ours == theirs


class TestObservability:
    def test_kernel_metrics_recorded_when_observing(self):
        with obs.observe(metrics=obs.Metrics()) as ctx:
            market = two_provider_market()
            market.run(2)
            snapshot = ctx.metrics.snapshot()
        scope = snapshot["scale.kernel"]
        assert scope["counters"]["rounds"] == 2
        assert "switches" in scope["counters"]
        assert scope["histograms"]["kernel_bytes"]["count"] == 2

    def test_disabled_by_default(self):
        market = two_provider_market()
        assert market._c_rounds is None
        market.run(1)

    @pytest.mark.parametrize("rounds, spec", [
        (30, lambda: lockin_market_spec(12.0, 120, seed=7)),
        (25, lambda: value_pricing_market_spec(1, True, False, 150, seed=11)),
        (30, lambda: access_market_spec(scenario_facilities("duopoly"),
                                        AccessRegime.OPEN_WRONG_BOUNDARY,
                                        seed=3)),
    ], ids=["e01", "e02", "e03"])
    def test_backends_report_the_same_econ_market_rounds(self, rounds, spec):
        """E01-E03 run on VectorMarket; their round spans and counters
        must read as they did on the scalar Market."""
        reports = []
        for backend in (Market, VectorMarket):
            tracer, metrics = obs.Tracer(), obs.Metrics()
            with obs.observe(tracer=tracer, metrics=metrics):
                backend(**spec()).run(rounds)
            reports.append((
                [r for r in tracer.records() if r["scope"] == "econ.market"],
                metrics.snapshot()["econ.market"]))
        scalar, vector = reports
        assert len(scalar[0]) == rounds
        assert scalar[1]["counters"]["clearing_rounds"] == rounds
        assert vector == scalar
