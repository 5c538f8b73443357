"""L01/L02 at population scale: the paper-claim shapes must survive N.

The 10^5 tier is part of the CI slow lane.  The 10^6 tier additionally
carries the ``large`` marker so it only runs where the slow lane opts in
with ``-m 'large or not large'`` — a full million-agent round is cheap
per-round (~0.2 s warm) but the first round pays numpy allocation.
"""

import pytest

from tussle.scale.large import lockin_market_spec, run_l01, run_l02
from tussle.scale.vmarket import VectorMarket


@pytest.mark.slow
class TestShapesAtHundredThousand:
    def test_l01_lockin_shape_holds_at_1e5(self):
        result = run_l01(tiers=(100_000,))
        assert result.shape_holds, result.format()

    def test_l02_value_pricing_shape_holds_at_1e5(self):
        result = run_l02(tiers=(100_000,))
        assert result.shape_holds, result.format()


@pytest.mark.slow
@pytest.mark.large
class TestMillionAgents:
    def test_million_agent_rounds_produce_sane_records(self):
        market = VectorMarket(**lockin_market_spec(3.0, 1_000_000, seed=7))
        history = market.run(3)
        assert len(history) == 3
        for record in history:
            assert record.mean_price > 0
            assert 0.0 < sum(record.shares.values()) <= 1.0 + 1e-9
        assert market.subscribed_fraction() > 0.9
        assert market.arrays.nbytes() > 8 * 1_000_000
