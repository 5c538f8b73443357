"""Tests for pricing strategies."""

import pytest

from tussle.errors import MarketError
from tussle.econ.agents import Provider
from tussle.econ.pricing import (
    MonopolyPricing,
    UndercutPricing,
    ValuePricingStrategy,
)


def make_provider(price=40.0, unit_cost=5.0, business=None):
    return Provider(name="p", price=price, unit_cost=unit_cost,
                    business_price=business)


class TestUndercut:
    def test_undercuts_cheapest_rival(self):
        provider = make_provider(price=40.0)
        UndercutPricing(undercut_by=1.0).adjust(
            provider, {"p": 40.0, "r1": 30.0, "r2": 35.0}, 0.3)
        assert provider.price == 29.0

    def test_floored_at_cost_plus_margin(self):
        provider = make_provider(price=40.0, unit_cost=20.0)
        UndercutPricing(margin_floor=0.5).adjust(
            provider, {"p": 40.0, "r": 10.0}, 0.3)
        assert provider.price == 20.5

    def test_no_rivals_no_change(self):
        provider = make_provider(price=40.0)
        UndercutPricing().adjust(provider, {"p": 40.0}, 1.0)
        assert provider.price == 40.0

    def test_business_tier_kept_above_basic(self):
        provider = make_provider(price=40.0, business=41.0)
        UndercutPricing().adjust(provider, {"p": 40.0, "r": 60.0}, 0.3)
        assert provider.business_price >= provider.price


class TestMonopoly:
    def test_creeps_up_while_share_holds(self):
        provider = make_provider(price=40.0)
        MonopolyPricing(creep=2.0).adjust(provider, {"p": 40.0}, 0.6)
        assert provider.price == 42.0

    def test_backs_off_when_share_collapses(self):
        provider = make_provider(price=40.0)
        MonopolyPricing(creep=2.0, share_floor=0.25).adjust(
            provider, {"p": 40.0}, 0.1)
        assert provider.price == 38.0

    def test_respects_cap_and_cost_floor(self):
        provider = make_provider(price=89.5)
        MonopolyPricing(creep=2.0, price_cap=90.0).adjust(
            provider, {"p": 89.5}, 0.6)
        assert provider.price == 90.0
        cheap = make_provider(price=5.5, unit_cost=5.0)
        MonopolyPricing(creep=2.0).adjust(cheap, {"p": 5.5}, 0.1)
        assert cheap.price == 5.0


class TestValuePricing:
    def test_maintains_tier_multiple(self):
        provider = make_provider(price=30.0, business=30.0)
        ValuePricingStrategy(tier_multiple=2.0).adjust(
            provider, {"p": 30.0}, 0.5)
        assert provider.business_price == 60.0

    def test_composes_with_base_strategy(self):
        provider = make_provider(price=40.0, business=40.0)
        strategy = ValuePricingStrategy(
            tier_multiple=2.0, base_strategy=UndercutPricing(undercut_by=1.0))
        strategy.adjust(provider, {"p": 40.0, "r": 30.0}, 0.3)
        assert provider.price == 29.0
        assert provider.business_price == 58.0

    def test_multiple_below_one_rejected(self):
        with pytest.raises(MarketError):
            ValuePricingStrategy(tier_multiple=0.5)
