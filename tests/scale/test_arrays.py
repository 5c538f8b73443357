"""Tests for the structure-of-arrays population snapshots."""

import random

import numpy as np
import pytest

from tussle.econ.agents import Consumer, Provider
from tussle.econ.demand import Segment
from tussle.econ.market import Market
from tussle.errors import ScaleError
from tussle.scale.arrays import ConsumerBatch, MarketArrays, random_doubles
from tussle.scale.vmarket import VectorMarket


def make_consumers(n=6):
    consumers = []
    for i in range(n):
        business = i % 2 == 0
        consumers.append(Consumer(
            name=f"c{i}",
            wtp=20.0 + i,
            segment=Segment.BUSINESS if business else Segment.BASIC,
            switching_cost=1.5,
            server_value=10.0 if business else 0.0,
            can_tunnel=business,
            tunnel_cost=3.0,
            provider="alpha" if i < 3 else None,
        ))
    return consumers


def make_batch(initial_provider=None):
    """``make_consumers``' population as columns."""
    consumers = make_consumers()
    return ConsumerBatch(
        wtp=[c.wtp for c in consumers],
        server_value=[c.server_value for c in consumers],
        values_server=[c.values_server() for c in consumers],
        switching_cost=[c.switching_cost for c in consumers],
        can_tunnel=[c.can_tunnel for c in consumers],
        tunnel_cost=[c.tunnel_cost for c in consumers],
        initial_provider=initial_provider,
    )


class TestConsumerBatch:
    def test_columns_coerced_and_sized(self):
        batch = ConsumerBatch(
            wtp=[10.0, 20.0],
            server_value=[0.0, 5.0],
            values_server=[False, True],
            switching_cost=[1.0, 1.0],
            can_tunnel=[False, True],
            tunnel_cost=[2.0, 2.0],
        )
        assert len(batch) == 2
        assert batch.wtp.dtype == np.float64
        assert batch.values_server.dtype == bool

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ScaleError):
            ConsumerBatch(
                wtp=[10.0, 20.0],
                server_value=[0.0],
                values_server=[False, True],
                switching_cost=[1.0, 1.0],
                can_tunnel=[False, True],
                tunnel_cost=[2.0, 2.0],
            )

    @pytest.mark.parametrize("field", ["wtp", "switching_cost",
                                       "server_value", "tunnel_cost"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_amounts_rejected(self, field, value):
        columns = dict(
            wtp=[10.0, 20.0],
            server_value=[0.0, 5.0],
            values_server=[False, True],
            switching_cost=[1.0, 1.0],
            can_tunnel=[False, True],
            tunnel_cost=[2.0, 2.0],
        )
        columns[field] = [columns[field][0], value]
        with pytest.raises(ScaleError, match=field):
            ConsumerBatch(**columns)

    def test_to_consumers_round_trips_attributes(self):
        batch = ConsumerBatch(
            wtp=[10.0, 20.0],
            server_value=[0.0, 5.0],
            values_server=[False, True],
            switching_cost=[1.0, 2.0],
            can_tunnel=[False, True],
            tunnel_cost=[2.0, 3.0],
            initial_provider="alpha",
            name_prefix="home",
        )
        consumers = batch.to_consumers()
        assert [c.name for c in consumers] == ["home0", "home1"]
        assert consumers[1].values_server()
        assert not consumers[0].values_server()
        assert consumers[0].provider == "alpha"
        assert consumers[1].wtp == 20.0
        assert consumers[1].tunnel_cost == 3.0


class TestMarketArrays:
    def test_from_batch_snapshots_state(self):
        consumers = make_consumers()
        started = MarketArrays.from_batch(make_batch("alpha"),
                                          ["alpha", "beta"])
        free = MarketArrays.from_batch(make_batch(), ["alpha", "beta"])
        assert len(started) == 6
        assert started.n_providers == 2
        assert list(started.assignment[:3]) == [0, 0, 0]
        assert list(free.assignment[3:]) == [-1, -1, -1]
        assert started.provider_of(0) == "alpha"
        assert free.provider_of(3) is None
        np.testing.assert_array_equal(
            free.values_server,
            [c.values_server() for c in consumers])

    def test_unknown_initial_provider_rejected(self):
        batch = ConsumerBatch.basic(np.array([10.0]), 0.0,
                                    initial_provider="nowhere")
        with pytest.raises(ScaleError):
            VectorMarket([Provider(name="alpha", price=10.0)], batch)

    def test_from_batch_unknown_provider_rejected(self):
        batch = ConsumerBatch(
            wtp=[10.0],
            server_value=[0.0],
            values_server=[False],
            switching_cost=[0.0],
            can_tunnel=[False],
            tunnel_cost=[2.0],
            initial_provider="nowhere",
        )
        with pytest.raises(ScaleError):
            MarketArrays.from_batch(batch, ["alpha"])

    def test_nbytes_counts_all_columns(self):
        arrays = MarketArrays.from_batch(
            make_batch(), ["alpha", "beta"], preference_noise=1.0, seed=4)
        without_taste = MarketArrays.from_batch(make_batch(), ["alpha", "beta"])
        assert arrays.nbytes() > without_taste.nbytes() > 0

    def test_taste_matrix_replays_the_scalar_stream(self):
        """Element [i, j] must be the scalar market's taste draw."""
        consumers = make_consumers()
        providers = [
            Provider(name="beta", price=10.0),
            Provider(name="alpha", price=11.0),
        ]
        for consumer in consumers:
            consumer.provider = None
        market = Market(providers=providers, consumers=consumers,
                        preference_noise=2.0, seed=99)
        taste = MarketArrays.taste_matrix(len(consumers), 2, 2.0, seed=99)
        for i, consumer in enumerate(consumers):
            for j, name in enumerate(sorted(market.providers)):
                assert taste[i, j] == market._taste[(consumer.name, name)]

    def test_taste_matrix_none_without_noise(self):
        assert MarketArrays.taste_matrix(5, 2, 0.0, seed=1) is None


def loop_doubles(rng, n):
    """The reference: ``n`` calls of ``rng.random()`` in a Python loop."""
    return np.array([rng.random() for _ in range(n)], dtype=np.float64)


class TestRandomDoubles:
    """The numpy replay of a ``random.Random`` stream is the loop's stream."""

    @pytest.mark.parametrize("seed", [0, 7, 11, 2**40 + 3])
    @pytest.mark.parametrize("n", [0, 1, 624, 625, 100_000])
    def test_matches_the_python_loop(self, seed, n):
        reference, replayed = random.Random(seed), random.Random(seed)
        expected = loop_doubles(reference, n)
        got = random_doubles(replayed, n)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        # The passed generator advances exactly as the loop's did.
        assert replayed.getstate() == reference.getstate()
        assert replayed.random() == reference.random()

    def test_continues_a_stream_mid_block(self):
        # Start off a 624-word block boundary, with a cached gauss.
        reference, replayed = random.Random(5), random.Random(5)
        for rng in (reference, replayed):
            rng.gauss(0.0, 1.0)
            for _ in range(300):
                rng.random()
        assert (random_doubles(replayed, 1000).tobytes()
                == loop_doubles(reference, 1000).tobytes())
        assert replayed.getstate() == reference.getstate()
        assert replayed.gauss(0.0, 1.0) == reference.gauss(0.0, 1.0)

    def test_taste_matrix_matches_the_uniform_loop(self):
        rng = random.Random(13 + 1)
        expected = np.array([rng.uniform(-1.5, 1.5) for _ in range(625 * 3)])
        taste = MarketArrays.taste_matrix(625, 3, 1.5, seed=13)
        assert taste.tobytes() == expected.reshape(625, 3).tobytes()
