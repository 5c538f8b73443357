"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tussle.econ.competition import herfindahl_index
from tussle.errors import MarketError
from tussle.gametheory.games import NormalFormGame
from tussle.gametheory.zerosum import solve_zero_sum
from tussle.trust.trustgraph import TrustGraph

small_floats = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


class TestHhiProperties:
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0,
                              allow_nan=False), min_size=1, max_size=15))
    def test_hhi_bounds(self, shares):
        hhi = herfindahl_index(shares)
        assert 1.0 / len(shares) - 1e-9 <= hhi <= 1.0 + 1e-9

    @given(st.integers(min_value=1, max_value=50))
    def test_symmetric_market_hhi(self, n):
        assert herfindahl_index([1.0 / n] * n) == pytest.approx(1.0 / n)


class TestTrustProperties:
    @given(st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        max_size=20))
    def test_trust_bounded_and_self_trust_one(self, edges):
        graph = TrustGraph()
        for truster, trustee, score in edges:
            if truster != trustee:
                graph.set_trust(truster, trustee, score)
        for party in "abcde":
            assert graph.trust(party, party) == 1.0
            for other in "abcde":
                assert 0.0 <= graph.trust(party, other) <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
           st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_indirect_trust_never_exceeds_weakest_link(self, s1, s2):
        graph = TrustGraph(decay=1.0)
        graph.set_trust("a", "b", s1)
        graph.set_trust("b", "c", s2)
        assert graph.trust("a", "c") <= min(s1, s2) + 1e-9


#: Degenerate games pinned as examples of both zero-sum properties.
ALL_EQUAL = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0]]
DUPLICATED_ROW = [[3.0, -1.0, 2.0], [3.0, -1.0, 2.0], [0.0, 4.0, 1.0]]
SADDLE_POINT = [[5.0, 1.0, 3.0], [3.0, 2.0, 4.0], [-3.0, 0.0, 1.0]]
#: E11's user payoffs with steganography: three equilibria.
STEGANOGRAPHY = [[10.0, 4.0, 10.0], [9.0, 9.0, 0.0], [8.0, 8.0, 8.0]]


class TestZeroSumProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(small_floats, min_size=2, max_size=4),
                    min_size=2, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @example(rows=ALL_EQUAL)
    @example(rows=DUPLICATED_ROW)
    @example(rows=SADDLE_POINT)
    @example(rows=STEGANOGRAPHY)
    def test_minimax_strategies_guarantee_the_value(self, rows):
        matrix = np.array(rows)
        game = NormalFormGame([matrix, -matrix])
        solution = solve_zero_sum(game)
        # Row strategy guarantees >= value against every column.
        guarantees = solution.row_strategy @ matrix
        assert np.all(guarantees >= solution.value - 1e-6)
        # Column strategy holds the row player to <= value.
        exposures = matrix @ solution.col_strategy
        assert np.all(exposures <= solution.value + 1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(small_floats, min_size=2, max_size=3),
                    min_size=2, max_size=3).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @example(rows=ALL_EQUAL)
    @example(rows=DUPLICATED_ROW)
    @example(rows=SADDLE_POINT)
    @example(rows=STEGANOGRAPHY)
    def test_strategies_are_distributions(self, rows):
        matrix = np.array(rows)
        solution = solve_zero_sum(NormalFormGame([matrix, -matrix]))
        for strategy in (solution.row_strategy, solution.col_strategy):
            assert strategy.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(strategy >= -1e-12)
