"""Tests for consumers and providers."""

import pytest

from tussle.errors import MarketError
from tussle.econ.agents import Consumer, Provider
from tussle.econ.demand import Segment


class TestConsumer:
    @pytest.mark.parametrize("field", ["wtp", "switching_cost",
                                       "server_value", "tunnel_cost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_amounts_rejected(self, field, value):
        kwargs = {"name": "c", "wtp": 30.0, field: value}
        with pytest.raises(MarketError, match=field):
            Consumer(**kwargs)

    def test_basic_consumer_does_not_value_server(self):
        consumer = Consumer(name="c", wtp=30.0)
        assert not consumer.values_server()
        assert consumer.round_value(runs_server=True) == 30.0

    def test_business_consumer_gains_server_value(self):
        consumer = Consumer(name="c", wtp=30.0, segment=Segment.BUSINESS,
                            server_value=20.0)
        assert consumer.values_server()
        assert consumer.round_value(runs_server=True) == 50.0
        assert consumer.round_value(runs_server=False) == 30.0


class TestProvider:
    @pytest.mark.parametrize("field", ["price", "business_price",
                                       "unit_cost"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_amounts_rejected(self, field, value):
        kwargs = {"name": "p", "price": 30.0, field: value}
        with pytest.raises(MarketError, match=field):
            Provider(**kwargs)

    def test_negative_price_rejected(self):
        with pytest.raises(MarketError):
            Provider(name="p", price=-1.0)

    def test_business_tier_cannot_undercut_basic(self):
        with pytest.raises(MarketError):
            Provider(name="p", price=30.0, business_price=20.0)

    def test_tiered_flag(self):
        assert Provider(name="p", price=30.0, business_price=60.0).tiered
        assert not Provider(name="p", price=30.0).tiered

    def test_price_for_open_server_usage(self):
        provider = Provider(name="p", price=30.0, business_price=60.0)
        consumer = Consumer(name="c", wtp=50.0, segment=Segment.BUSINESS,
                            server_value=20.0)
        assert provider.price_for(consumer, runs_server_openly=True) == 60.0
        assert provider.price_for(consumer, runs_server_openly=False) == 30.0

    def test_untiered_provider_charges_basic_regardless(self):
        provider = Provider(name="p", price=30.0)
        consumer = Consumer(name="c", wtp=50.0)
        assert provider.price_for(consumer, runs_server_openly=True) == 30.0

    def test_record_round_accumulates_profit(self):
        provider = Provider(name="p", price=30.0, unit_cost=10.0)
        provider.record_round(revenue=100.0, n_subscribers=3)
        assert provider.profit == pytest.approx(70.0)
        assert provider.revenue_history == [100.0]

    def test_market_share(self):
        provider = Provider(name="p", price=30.0)
        provider.subscribers = {"a", "b"}
        assert provider.market_share(8) == pytest.approx(0.25)
        assert provider.market_share(0) == 0.0
