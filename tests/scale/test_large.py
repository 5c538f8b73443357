"""Large-N builders and the L01/L02 experiments at their default tier."""

import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

from tussle.econ.agents import Consumer
from tussle.econ.demand import Segment, UniformWtp
from tussle.econ.market import Market
from tussle.experiments import ALL_EXPERIMENTS
from tussle.scale.large import (
    DEFAULT_TIERS,
    LOCKIN_SCENARIOS,
    VALUE_PRICING_CELLS,
    lockin_batch,
    lockin_market_spec,
    lockin_switching_cost,
    run_l01,
    run_l02,
    value_pricing_batch,
    value_pricing_market_spec,
)
from tussle.scale.vmarket import VectorMarket

ROOT = Path(__file__).resolve().parents[2]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _perfbench_pins(seed: int) -> dict:
    """The L01/L02 digests ``perfbench/pins.json`` pins (read, never
    written)."""
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    return pins["full"]["population"][str(seed)]


def lockin_consumers(switching_cost, n_consumers, seed):
    """The lock-in population drawn ``Consumer`` by ``Consumer`` from
    ``random.Random(seed)``: the plain-Python reference the batch
    replays."""
    rng = random.Random(seed)
    wtp = UniformWtp(35.0, 110.0)
    return [
        Consumer(
            name=f"site{i}",
            wtp=wtp.sample(rng),
            segment=Segment.BASIC,
            switching_cost=switching_cost,
            provider="incumbent",
        )
        for i in range(n_consumers)
    ]


def value_pricing_consumers(n_consumers, can_tunnel, seed):
    """The value-pricing population, drawn the same way."""
    rng = random.Random(seed)
    basic_wtp = UniformWtp(25.0, 60.0)
    business_wtp = UniformWtp(35.0, 70.0)
    consumers = []
    for i in range(n_consumers):
        if i % 3 == 0:  # a third of households want to run a server
            consumers.append(Consumer(
                name=f"home{i}",
                wtp=business_wtp.sample(rng),
                segment=Segment.BUSINESS,
                server_value=30.0,
                can_tunnel=can_tunnel,
                tunnel_cost=3.0,
                switching_cost=2.0,
            ))
        else:
            consumers.append(Consumer(
                name=f"home{i}",
                wtp=basic_wtp.sample(rng),
                segment=Segment.BASIC,
                switching_cost=2.0,
            ))
    return consumers


def scalar_twin(spec, consumers):
    """The scalar ``Market`` of ``spec`` over a ``Consumer``-loop
    population in place of the spec's batch."""
    del spec["batch"]
    return Market(consumers=consumers, **spec)


def assert_batch_matches(batch, consumers):
    """Every batch column equals the loop population's, bit for bit."""
    expected = {
        "wtp": [c.wtp for c in consumers],
        "server_value": [c.server_value for c in consumers],
        "values_server": [c.values_server() for c in consumers],
        "switching_cost": [c.switching_cost for c in consumers],
        "can_tunnel": [c.can_tunnel for c in consumers],
        "tunnel_cost": [c.tunnel_cost for c in consumers],
    }
    for name, values in expected.items():
        column = getattr(batch, name)
        assert column.tobytes() == np.array(
            values, dtype=column.dtype).tobytes(), name


class TestBuilders:
    def test_lockin_batch_matches_scalar_spec_population(self):
        """At matching N the batch replays the Consumer loop's RNG stream."""
        n = 40
        batch = lockin_batch(3.0, n, seed=13)
        consumers = lockin_consumers(3.0, n, seed=13)
        assert len(consumers) == n
        assert_batch_matches(batch, consumers)
        assert batch.initial_provider == "incumbent"
        assert float(batch.switching_cost[0]) == 3.0

    def test_value_pricing_batch_matches_scalar_spec_population(self):
        n = 47  # not a multiple of 3: the i % 3 pattern ends mid-cycle
        for can_tunnel in (False, True):
            batch = value_pricing_batch(n, can_tunnel=can_tunnel, seed=17)
            assert_batch_matches(
                batch, value_pricing_consumers(n, can_tunnel, seed=17))
            assert batch.initial_provider is None

    def test_market_builders_wire_strategies(self):
        market = VectorMarket(**lockin_market_spec(2.0, 100, seed=3))
        assert set(market.providers) == {"incumbent", "rival-a", "rival-b"}
        assert "incumbent" in market.strategies
        market = VectorMarket(**value_pricing_market_spec(
            2, can_tunnel=True, detects_tunnels=False,
            n_consumers=100, seed=3))
        assert set(market.providers) == {"isp0", "isp1"}


class TestScalarTwin:
    """Each L01/L02 batch market against the scalar Market over the
    Consumer-loop population at the same N and seed: equal round records
    over the experiment's round count."""

    N = 1501

    @pytest.mark.parametrize("label, mode", LOCKIN_SCENARIOS,
                             ids=[label for label, _ in LOCKIN_SCENARIOS])
    def test_l01_scenario(self, label, mode):
        cost = lockin_switching_cost(mode, 20)
        batch_market = VectorMarket(**lockin_market_spec(cost, self.N, seed=7))
        scalar = scalar_twin(lockin_market_spec(cost, self.N, seed=7),
                             lockin_consumers(cost, self.N, seed=7))
        assert batch_market.run(30) == scalar.run(30)

    @pytest.mark.parametrize(
        "label, n_providers, can_tunnel, detects", VALUE_PRICING_CELLS,
        ids=[f"{c[0]}-tunnel{int(c[2])}-dpi{int(c[3])}"
             for c in VALUE_PRICING_CELLS])
    def test_l02_cell(self, label, n_providers, can_tunnel, detects):
        batch_market = VectorMarket(**value_pricing_market_spec(
            n_providers, can_tunnel, detects, self.N, seed=11))
        scalar = scalar_twin(
            value_pricing_market_spec(n_providers, can_tunnel, detects,
                                      self.N, seed=11),
            value_pricing_consumers(self.N, can_tunnel, seed=11))
        assert batch_market.run(25) == scalar.run(25)


class TestL01:
    def test_zero_rounds_fails_the_shape_instead_of_raising(self):
        result = run_l01(rounds=0)
        assert not result.shape_holds
        assert result.tables[0].column("switch_rate") == [0.0] * 4

    def test_empty_tier_fails_the_shape_instead_of_raising(self):
        result = run_l01(tiers=(0,))
        assert not result.shape_holds
        assert result.tables[0].column("switch_rate") == [0.0] * 4

    def test_default_tier_claim_holds(self):
        result = run_l01()
        assert result.shape_holds
        assert all(c.holds for c in result.checks)
        table = result.tables[0]
        assert set(table.column("n")) == set(DEFAULT_TIERS)
        # One row per addressing scenario per tier.
        assert len(table.rows) == 4 * len(DEFAULT_TIERS)

    def test_registered_in_catalog(self):
        assert ALL_EXPERIMENTS["L01"] is run_l01
        assert ALL_EXPERIMENTS["L02"] is run_l02


class TestL02:
    def test_default_tier_claim_holds(self):
        result = run_l02()
        assert result.shape_holds
        assert all(c.holds for c in result.checks)
        table = result.tables[0]
        assert set(table.column("n")) == set(DEFAULT_TIERS)
        assert len(table.rows) == 5 * len(DEFAULT_TIERS)

    def test_seed_changes_numbers_not_shape(self):
        a = run_l02(seed=11)
        b = run_l02(seed=12)
        assert a.shape_holds and b.shape_holds
        assert a.tables[0].column("market") == b.tables[0].column("market")


class TestFullSizePins:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_size_population_matches_the_benchmark_pin(self, seed):
        """10^5-consumer bytes: the parity pair and the registry reach only
        N <= 10^4, where the choice masks mix differently."""
        pins = _perfbench_pins(seed)
        l01 = run_l01(tiers=(100_000,), rounds=30, seed=seed)
        assert _sha256(l01.to_json()) == pins["L01"]
        l02 = run_l02(tiers=(100_000,), rounds=25, seed=seed)
        assert _sha256(l02.to_json()) == pins["L02"]
