"""Tests for normal-form games and the tussle taxonomy."""

import numpy as np
import pytest

from tussle.errors import GameError
from tussle.gametheory.games import NormalFormGame, TussleClass, classify_game
from tussle.gametheory.repeated import prisoners_dilemma


def coordination_game():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    return NormalFormGame([a, a.copy()], name="coordination")


def matching_pennies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame([a, -a], name="matching-pennies")


class TestConstruction:
    def test_shapes_must_match(self):
        with pytest.raises(GameError):
            NormalFormGame([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_axes_must_match_players(self):
        with pytest.raises(GameError):
            NormalFormGame([np.zeros((2, 2))])  # one player, 2 axes

    def test_needs_players(self):
        with pytest.raises(GameError):
            NormalFormGame([])

    def test_labels_validated(self):
        a = np.zeros((2, 2))
        with pytest.raises(GameError):
            NormalFormGame([a, a], action_labels=[["x"], ["y", "z"]])

    def test_default_labels(self):
        game = NormalFormGame([np.zeros((2, 3)), np.zeros((2, 3))])
        assert game.action_labels[0] == ["a0", "a1"]
        assert game.action_labels[1] == ["a0", "a1", "a2"]

    @pytest.mark.parametrize("player", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_payoff(self, bad, player):
        payoffs = [np.eye(2), np.eye(2)]
        payoffs[player][0, 0] = bad
        with pytest.raises(GameError, match=f"player {player} has a NaN"):
            NormalFormGame(payoffs)

    def test_three_player_game(self):
        shape = (2, 2, 2)
        payoffs = [np.zeros(shape) for _ in range(3)]
        payoffs[0][1, 1, 1] = 1.0
        game = NormalFormGame(payoffs)
        assert game.n_players == 3
        assert game.payoff(0, (1, 1, 1)) == 1.0


class TestPureAnalysis:
    def test_pd_unique_defect_equilibrium(self):
        assert prisoners_dilemma().pure_nash_equilibria() == [(1, 1)]

    def test_coordination_two_equilibria(self):
        assert coordination_game().pure_nash_equilibria() == [(0, 0), (1, 1)]

    def test_matching_pennies_no_pure_equilibrium(self):
        assert matching_pennies().pure_nash_equilibria() == []

    def test_dominant_strategy_in_pd(self):
        game = prisoners_dilemma()
        assert game.dominant_strategy(0) == 1
        assert game.dominant_strategy(1) == 1

    def test_no_dominant_strategy_in_coordination(self):
        assert coordination_game().dominant_strategy(0) is None

    def test_best_response_check(self):
        game = coordination_game()
        assert game.is_best_response(0, (0, 0))
        assert not game.is_best_response(0, (1, 0))

    def test_three_player_pure_nash(self):
        shape = (2, 2, 2)
        payoffs = []
        for player in range(3):
            arr = np.zeros(shape)
            arr[1, 1, 1] = 1.0
            payoffs.append(arr)
        game = NormalFormGame(payoffs)
        assert (1, 1, 1) in game.pure_nash_equilibria()


class TestMixedPayoffs:
    def test_expected_payoff_uniform(self):
        game = matching_pennies()
        uniform = np.array([0.5, 0.5])
        assert game.expected_payoff(0, [uniform, uniform]) == pytest.approx(0.0)

    def test_expected_payoff_pure_via_mixed(self):
        game = prisoners_dilemma()
        cooperate = np.array([1.0, 0.0])
        defect = np.array([0.0, 1.0])
        assert game.expected_payoff(0, [defect, cooperate]) == pytest.approx(5.0)

    def test_wrong_strategy_length_rejected(self):
        game = prisoners_dilemma()
        with pytest.raises(GameError):
            game.expected_payoff(0, [np.array([1.0]), np.array([0.5, 0.5])])


class TestProperties:
    def test_zero_sum_detection(self):
        assert matching_pennies().is_zero_sum()
        assert not prisoners_dilemma().is_zero_sum()

    def test_constant_sum_counts_as_zero_sum(self):
        a = np.array([[3.0, 1.0], [2.0, 0.0]])
        game = NormalFormGame([a, 5.0 - a])
        assert game.is_zero_sum()

    def test_symmetry(self):
        assert prisoners_dilemma().is_symmetric()
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not NormalFormGame([a, b]).is_symmetric()


class TestClassification:
    def test_zero_sum_class(self):
        assert classify_game(matching_pennies()) is TussleClass.ZERO_SUM

    def test_coordination_class(self):
        assert classify_game(coordination_game()) is TussleClass.COORDINATION

    def test_pd_is_mixed_motive(self):
        assert classify_game(prisoners_dilemma()) is TussleClass.MIXED_MOTIVE

    def test_harmony_class(self):
        a = np.array([[3.0, 2.0], [1.0, 0.0]])
        b = np.array([[3.0, 1.0], [2.0, 0.0]])
        game = NormalFormGame([a, b])
        assert classify_game(game) is TussleClass.HARMONY

    def test_classification_two_player_only(self):
        payoffs = [np.zeros((2, 2, 2)) for _ in range(3)]
        with pytest.raises(GameError):
            classify_game(NormalFormGame(payoffs))
