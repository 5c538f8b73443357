"""Tests for the zero-sum support-enumeration solver."""

import numpy as np
import pytest

from tussle.errors import GameError
from tussle.gametheory.games import NormalFormGame
from tussle.gametheory.zerosum import (
    MAX_SUPPORT_PAIRS,
    minimax_value,
    solve_zero_sum,
)
from tussle.gametheory.tussle_games import wiretap_hide_seek
from tussle.gametheory.repeated import prisoners_dilemma


def matching_pennies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame([a, -a])


def assert_minimax_certificate(matrix, solution, tolerance=1e-9):
    """Optimality by the minimax theorem, with no second solver: the row
    strategy guarantees ``value`` against every column and the column
    strategy holds every row to it."""
    for strategy in (solution.row_strategy, solution.col_strategy):
        assert strategy.sum() == pytest.approx(1.0, abs=tolerance)
        assert np.all(strategy >= 0.0)
    assert np.all(solution.row_strategy @ matrix >= solution.value - tolerance)
    assert np.all(matrix @ solution.col_strategy <= solution.value + tolerance)


class TestSolver:
    def test_matching_pennies_value_zero(self):
        solution = solve_zero_sum(matching_pennies())
        assert solution.value == pytest.approx(0.0, abs=1e-6)
        assert solution.row_strategy == pytest.approx([0.5, 0.5], abs=1e-6)
        assert solution.col_strategy == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_dominant_row_game(self):
        a = np.array([[3.0, 2.0], [1.0, 0.0]])
        game = NormalFormGame([a, -a])
        solution = solve_zero_sum(game)
        assert solution.value == pytest.approx(2.0, abs=1e-6)
        assert solution.row_strategy[0] == pytest.approx(1.0, abs=1e-6)

    def test_hide_and_seek_uniform(self):
        solution = solve_zero_sum(wiretap_hide_seek(4))
        assert solution.value == pytest.approx(-0.25, abs=1e-6)
        assert solution.row_strategy == pytest.approx([0.25] * 4, abs=1e-5)
        assert solution.col_strategy == pytest.approx([0.25] * 4, abs=1e-5)

    def test_support_helper(self):
        solution = solve_zero_sum(matching_pennies())
        assert solution.support(0) == (0, 1)
        assert solution.support(1) == (0, 1)

    def test_non_square_game(self):
        a = np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.5]])
        solution = solve_zero_sum(NormalFormGame([a, -a]))
        # Column player prefers column 0/1 mix; value bounded by +-0.5.
        assert -0.5 <= solution.value <= 0.5

    def test_rejects_general_sum(self):
        with pytest.raises(GameError):
            solve_zero_sum(prisoners_dilemma())

    def test_rejects_three_players(self):
        payoffs = [np.zeros((2, 2, 2)) for _ in range(3)]
        with pytest.raises(GameError):
            solve_zero_sum(NormalFormGame(payoffs))

    def test_value_guarantee_against_any_column(self):
        """The row strategy must guarantee at least the value."""
        game = wiretap_hide_seek(3)
        solution = solve_zero_sum(game)
        matrix = np.asarray(game.payoffs[0])
        guarantees = solution.row_strategy @ matrix
        assert np.all(guarantees >= solution.value - 1e-6)


class TestOneSidedGames:
    def test_single_row_game(self):
        a = np.array([[3.0, -1.0, 2.0]])
        solution = solve_zero_sum(NormalFormGame([a, -a]))
        assert solution.value == -1.0
        assert solution.row_strategy.tolist() == [1.0]
        assert solution.col_strategy.tolist() == [0.0, 1.0, 0.0]
        assert_minimax_certificate(a, solution)

    def test_single_column_game(self):
        a = np.array([[3.0], [-1.0], [2.0]])
        solution = solve_zero_sum(NormalFormGame([a, -a]))
        assert solution.value == 3.0
        assert solution.row_strategy.tolist() == [1.0, 0.0, 0.0]
        assert solution.col_strategy.tolist() == [1.0]
        assert_minimax_certificate(a, solution)


class TestSupportPairCap:
    """An m x n game has C(m + n, m) - 1 support pairs; 1 x n has n."""

    @pytest.mark.parametrize("matrix, value", [
        (np.arange(MAX_SUPPORT_PAIRS, dtype=float).reshape(1, -1), 0.0),
        (np.arange(MAX_SUPPORT_PAIRS, dtype=float).reshape(-1, 1),
         MAX_SUPPORT_PAIRS - 1.0),
        (np.asarray(wiretap_hide_seek(5).payoffs[0]), -0.2),
    ], ids=["1xcap", "capx1", "5x5"])
    def test_game_at_the_cap_solves(self, matrix, value):
        solution = solve_zero_sum(NormalFormGame([matrix, -matrix]))
        assert solution.value == pytest.approx(value, abs=1e-12)
        assert_minimax_certificate(matrix, solution)

    @pytest.mark.parametrize("shape", [(1, MAX_SUPPORT_PAIRS + 1),
                                       (MAX_SUPPORT_PAIRS + 1, 1)],
                             ids=["1xcap+1", "cap+1x1"])
    def test_one_pair_over_the_cap_raises(self, shape):
        a = np.zeros(shape)
        name = f"{shape[0]}x{shape[1]}"
        with pytest.raises(GameError, match=f"a {name} game has "
                           f"{MAX_SUPPORT_PAIRS + 1} support pairs"):
            minimax_value(a)
        with pytest.raises(GameError, match=name):
            solve_zero_sum(NormalFormGame([a, -a]))


class TestMinimaxValue:
    def test_saddle_point_game(self):
        matrix = np.array([[4.0, 2.0], [1.0, 3.0]])
        # Mixed value of this game: (4*3 - 2*1) / (4+3-2-1) = 10/4 = 2.5
        assert minimax_value(matrix) == pytest.approx(2.5, abs=1e-6)

    def test_requires_matrix(self):
        with pytest.raises(GameError):
            minimax_value(np.array([1.0, 2.0]))

    def test_shift_invariance_of_strategy(self):
        matrix = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert minimax_value(matrix + 10.0) == pytest.approx(
            minimax_value(matrix) + 10.0, abs=1e-6)

    def test_rejects_empty_matrix(self):
        with pytest.raises(GameError, match="empty"):
            minimax_value(np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payoff(self, bad):
        with pytest.raises(GameError, match="non-finite payoff or a range"):
            minimax_value(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_rejects_range_that_overflows_the_shift(self):
        matrix = np.array([[1e308, -1e308], [-1e308, 1e308]])
        with pytest.raises(GameError, match="non-finite payoff or a range"):
            minimax_value(matrix)
