"""Tests for repeated games, strategies and matches."""

import pytest

from tussle.errors import GameError
from tussle.gametheory.repeated import (
    COOPERATE,
    DEFECT,
    AlwaysDefect,
    GrimTrigger,
    RandomStrategy,
    cooperation_sustainable,
    play_match,
    prisoners_dilemma,
)


class TestStageGame:
    def test_pd_parameter_validation(self):
        with pytest.raises(GameError):
            prisoners_dilemma(t=1.0, r=3.0, p=1.0, s=0.0)

    def test_default_pd_payoffs(self):
        game = prisoners_dilemma()
        assert game.payoff(0, (COOPERATE, COOPERATE)) == 3.0
        assert game.payoff(0, (DEFECT, COOPERATE)) == 5.0


class TestStrategies:
    def test_grim_never_forgives(self):
        grim = GrimTrigger()
        assert grim.next_move([0, 0, 0], [0, 1, 0]) == DEFECT

    def test_random_strategy_seeded(self):
        a_strategy = RandomStrategy(0.5, seed=3)
        a = [a_strategy.first_move() for _ in range(10)]
        b_strategy = RandomStrategy(0.5, seed=3)
        b = [b_strategy.first_move() for _ in range(10)]
        assert a == b

    def test_random_probability_validated(self):
        with pytest.raises(GameError):
            RandomStrategy(1.5)


class TestMatches:
    def test_mutual_cooperation_score(self):
        result = play_match(GrimTrigger(), GrimTrigger(), rounds=10)
        assert result.score_a == 30.0
        assert result.cooperation_rate == 1.0

    def test_defector_exploits_cooperator(self):
        cooperator = RandomStrategy(p_cooperate=1.0)
        result = play_match(AlwaysDefect(), cooperator, rounds=10)
        assert result.score_a == 50.0
        assert result.score_b == 0.0

    def test_grim_holds_its_own_against_defector(self):
        result = play_match(GrimTrigger(), AlwaysDefect(), rounds=100)
        # Grim trigger loses only the first round.
        assert result.score_b - result.score_a == 5.0

    def test_match_requires_2x2_game(self):
        from tussle.gametheory.tussle_games import wiretap_hide_seek
        with pytest.raises(GameError):
            play_match(GrimTrigger(), GrimTrigger(), game=wiretap_hide_seek(3))


class TestFolkTheorem:
    def test_cooperation_sustainable_with_patient_players(self):
        assert cooperation_sustainable(discount=0.9)

    def test_cooperation_unravels_with_impatient_players(self):
        assert not cooperation_sustainable(discount=0.1)

    def test_threshold_location(self):
        """T-R=2, R-P=2 => critical discount = 0.5."""
        assert cooperation_sustainable(discount=0.5)
        assert not cooperation_sustainable(discount=0.49)

    def test_discount_validated(self):
        with pytest.raises(GameError):
            cooperation_sustainable(discount=1.0)
