"""Tests for willingness-to-pay distributions and segments."""

import random

import pytest

from tussle.errors import MarketError
from tussle.econ.demand import Segment, UniformWtp


class TestDistributions:
    def test_uniform_bounds(self):
        dist = UniformWtp(10.0, 20.0)
        rng = random.Random(0)
        samples = [dist.sample(rng) for _ in range(100)]
        assert all(10.0 <= s <= 20.0 for s in samples)

    def test_uniform_validation(self):
        with pytest.raises(MarketError):
            UniformWtp(-1.0, 5.0)
        with pytest.raises(MarketError):
            UniformWtp(10.0, 5.0)

    def test_segments_exist(self):
        assert Segment.BASIC is not Segment.BUSINESS

