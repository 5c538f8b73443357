"""Tests for learning dynamics."""

import numpy as np
import pytest

from tussle.errors import GameError
from tussle.gametheory.games import NormalFormGame
from tussle.gametheory.learning import best_response_dynamics
from tussle.gametheory.repeated import prisoners_dilemma


def matching_pennies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame([a, -a])


def coordination_game():
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    return NormalFormGame([a, a.copy()])


class TestBestResponseDynamics:
    def test_finds_pure_equilibrium_in_pd(self):
        result = best_response_dynamics(prisoners_dilemma())
        assert result.converged
        assert np.argmax(result.strategies[0]) == 1
        assert np.argmax(result.strategies[1]) == 1

    def test_settles_in_coordination(self):
        result = best_response_dynamics(coordination_game(), initial=(0, 0))
        assert result.converged

    def test_cycles_in_matching_pennies(self):
        result = best_response_dynamics(matching_pennies())
        assert not result.converged

    def test_initial_profile_validated(self):
        with pytest.raises(GameError):
            best_response_dynamics(prisoners_dilemma(), initial=(5, 0))

    def test_two_player_only(self):
        payoffs = [np.zeros((2, 2, 2)) for _ in range(3)]
        with pytest.raises(GameError):
            best_response_dynamics(NormalFormGame(payoffs))

    def test_cycle_detected_reports(self):
        result = best_response_dynamics(matching_pennies(), iterations=50)
        assert result.iterations <= 50
