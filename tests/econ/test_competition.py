"""Tests for market concentration."""

import pytest

from tussle.errors import MarketError
from tussle.econ.competition import herfindahl_index


class TestHhi:
    def test_monopoly_is_one(self):
        assert herfindahl_index([1.0]) == 1.0

    def test_symmetric_duopoly(self):
        assert herfindahl_index([0.5, 0.5]) == pytest.approx(0.5)

    def test_n_symmetric_firms(self):
        assert herfindahl_index([0.25] * 4) == pytest.approx(0.25)

    def test_normalizes_unnormalized_shares(self):
        assert herfindahl_index([2.0, 2.0]) == pytest.approx(0.5)

    def test_zero_shares_ignored(self):
        assert herfindahl_index([0.5, 0.5, 0.0]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(MarketError):
            herfindahl_index([])
        with pytest.raises(MarketError):
            herfindahl_index([0.0, 0.0])
