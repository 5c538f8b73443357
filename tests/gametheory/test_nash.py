"""Tests for Nash support enumeration and best response."""

import numpy as np
import pytest

from tussle.errors import GameError
from tussle.gametheory.games import NormalFormGame
from tussle.gametheory.nash import best_response, support_enumeration
from tussle.gametheory.repeated import prisoners_dilemma
from tussle.gametheory.tussle_games import encryption_escalation_game


def battle_of_sexes():
    a = np.array([[3.0, 0.0], [0.0, 2.0]])
    b = np.array([[2.0, 0.0], [0.0, 3.0]])
    return NormalFormGame([a, b])


def matching_pennies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame([a, -a])


class TestBestResponse:
    def test_pure_best_response(self):
        game = prisoners_dilemma()
        cooperate = np.array([1.0, 0.0])
        assert best_response(game, 0, cooperate) == 1  # defect

    def test_best_response_to_mixed(self):
        game = battle_of_sexes()
        mostly_second = np.array([0.1, 0.9])
        assert best_response(game, 0, mostly_second) == 1

    def test_column_player_perspective(self):
        game = battle_of_sexes()
        row_plays_first = np.array([1.0, 0.0])
        assert best_response(game, 1, row_plays_first) == 0

    def test_two_player_only(self):
        payoffs = [np.zeros((2, 2, 2)) for _ in range(3)]
        with pytest.raises(GameError):
            best_response(NormalFormGame(payoffs), 0, np.array([1.0, 0.0]))


class TestSupportEnumeration:
    def test_pd_single_equilibrium(self):
        equilibria = support_enumeration(prisoners_dilemma())
        assert len(equilibria) == 1
        assert equilibria[0].pure_profile() == (1, 1)
        assert equilibria[0].payoffs == (pytest.approx(1.0), pytest.approx(1.0))

    def test_battle_of_sexes_three_equilibria(self):
        equilibria = support_enumeration(battle_of_sexes())
        assert len(equilibria) == 3
        pure = {e.pure_profile() for e in equilibria if e.is_pure()}
        assert pure == {(0, 0), (1, 1)}
        mixed = [e for e in equilibria if not e.is_pure()]
        assert len(mixed) == 1
        x, y = mixed[0].strategies
        assert x == pytest.approx([0.6, 0.4], abs=1e-6)
        assert y == pytest.approx([0.4, 0.6], abs=1e-6)

    def test_matching_pennies_unique_mixed(self):
        equilibria = support_enumeration(matching_pennies())
        assert len(equilibria) == 1
        x, y = equilibria[0].strategies
        assert x == pytest.approx([0.5, 0.5], abs=1e-6)
        assert y == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_equilibria_verified_no_profitable_deviation(self):
        for game in (battle_of_sexes(), prisoners_dilemma()):
            for equilibrium in support_enumeration(game):
                x, y = equilibrium.strategies
                a, b = (np.asarray(p) for p in game.payoffs)
                assert np.max(a @ y) <= float(x @ a @ y) + 1e-6
                assert np.max(x @ b) <= float(x @ b @ y) + 1e-6

    def test_max_support_bounds_search(self):
        equilibria = support_enumeration(battle_of_sexes(), max_support=1)
        assert all(e.is_pure() for e in equilibria)

    def test_two_player_only(self):
        payoffs = [np.zeros((2, 2, 2)) for _ in range(3)]
        with pytest.raises(GameError):
            support_enumeration(NormalFormGame(payoffs))

    def test_asymmetric_action_counts(self):
        a = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        b = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        equilibria = support_enumeration(NormalFormGame([a, b]))
        assert equilibria  # at least the pure ones

    def test_exact_game_values_come_back_exact(self):
        """Each square indifference system is LU-solved, so a game with
        an exact value reads it to the last bit (an SVD least-squares
        solve returned 5.999999999999998 and 7.999999999999999 here)."""
        user = np.array([[10.0, 4.0, 10.0], [9.0, 9.0, 0.0]])
        [equilibrium] = support_enumeration(NormalFormGame([user, -user]))
        assert equilibrium.payoffs == (6.0, -6.0)
        for competition in (0.0, 0.5, 1.0):
            user = np.asarray(encryption_escalation_game(
                competition, steganography=True).payoffs[0], dtype=float)
            equilibria = support_enumeration(NormalFormGame([user, -user]))
            assert [e.payoffs[0] for e in equilibria] == [8.0, 8.0, 8.0]
