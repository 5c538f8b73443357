"""Tests for the structure-of-arrays population snapshots."""

import random

import numpy as np
import pytest

from tussle.econ.agents import Consumer, Provider
from tussle.econ.demand import Segment
from tussle.econ.market import Market
from tussle.errors import ScaleError
from tussle.scale.arrays import ConsumerBatch, MarketArrays


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
    def test_from_consumers_snapshots_state(self):
        consumers = make_consumers()
        arrays = MarketArrays.from_consumers(consumers, ["alpha", "beta"])
        assert len(arrays) == 6
        assert arrays.n_providers == 2
        assert list(arrays.assignment[:3]) == [0, 0, 0]
        assert list(arrays.assignment[3:]) == [-1, -1, -1]
        assert arrays.provider_of(0) == "alpha"
        assert arrays.provider_of(3) is None
        np.testing.assert_array_equal(
            arrays.values_server,
            [c.values_server() for c in consumers])

    def test_unknown_initial_provider_rejected(self):
        consumer = Consumer(name="c0", wtp=10.0, provider="nowhere")
        with pytest.raises(ScaleError):
            MarketArrays.from_consumers([consumer], ["alpha"])

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
        arrays = MarketArrays.from_consumers(
            make_consumers(), ["alpha", "beta"],
            preference_noise=1.0, seed=4)
        without_taste = MarketArrays.from_consumers(
            make_consumers(), ["alpha", "beta"])
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
