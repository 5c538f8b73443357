"""Repeated games: strategies, matches and the shadow of the future.

The paper's TCP congestion-control story is a repeated social dilemma held
together by "social pressure, standards pressure, and most individual
players' inability to make technical modifications" (§II-B). Repeated-game
machinery lets experiments ask when cooperation is self-enforcing and when
it unravels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import GameError
from .games import NormalFormGame

__all__ = [
    "COOPERATE",
    "DEFECT",
    "prisoners_dilemma",
    "RepeatedStrategy",
    "AlwaysDefect",
    "GrimTrigger",
    "RandomStrategy",
    "MatchResult",
    "play_match",
    "cooperation_sustainable",
]

#: Action indices by convention in 2x2 dilemma games.
COOPERATE, DEFECT = 0, 1


class RepeatedStrategy:
    """Interface for a repeated-game strategy.

    ``first_move()`` starts the match; ``next_move(my_history,
    their_history)`` continues it. Implementations must be deterministic
    unless seeded.
    """

    name = "strategy"

    def first_move(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def next_move(self, my_history: Sequence[int],
                  their_history: Sequence[int]) -> int:  # pragma: no cover
        raise NotImplementedError


class AlwaysDefect(RepeatedStrategy):
    name = "always-defect"

    def first_move(self) -> int:
        return DEFECT

    def next_move(self, my_history, their_history) -> int:
        return DEFECT


class GrimTrigger(RepeatedStrategy):
    """Cooperate until the opponent defects once, then defect forever.

    The harshest "social pressure" enforcement: one violation of the
    common rules ends cooperation permanently.
    """

    name = "grim-trigger"

    def first_move(self) -> int:
        return COOPERATE

    def next_move(self, my_history, their_history) -> int:
        return DEFECT if DEFECT in their_history else COOPERATE


class RandomStrategy(RepeatedStrategy):
    """Cooperate with probability p (seeded)."""

    name = "random"

    def __init__(self, p_cooperate: float = 0.5, seed: int = 0):
        if not 0.0 <= p_cooperate <= 1.0:
            raise GameError("p_cooperate must be a probability")
        self.p_cooperate = p_cooperate
        self.rng = random.Random(seed)

    def first_move(self) -> int:
        return COOPERATE if self.rng.random() < self.p_cooperate else DEFECT

    def next_move(self, my_history, their_history) -> int:
        return self.first_move()


@dataclass
class MatchResult:
    """One repeated match between two strategies."""

    strategy_a: str
    strategy_b: str
    score_a: float
    score_b: float
    cooperation_rate: float
    rounds: int


def prisoners_dilemma(t: float = 5.0, r: float = 3.0,
                      p: float = 1.0, s: float = 0.0) -> NormalFormGame:
    """The canonical 2x2 dilemma with T > R > P > S."""
    if not (t > r > p > s):
        raise GameError("prisoner's dilemma requires T > R > P > S")
    a = np.array([[r, s], [t, p]])
    return NormalFormGame(
        [a, a.T],
        action_labels=[["cooperate", "defect"], ["cooperate", "defect"]],
        name="prisoners-dilemma",
    )


def play_match(
    strategy_a: RepeatedStrategy,
    strategy_b: RepeatedStrategy,
    game: Optional[NormalFormGame] = None,
    rounds: int = 100,
) -> MatchResult:
    """Play a repeated match; returns total scores and cooperation rate."""
    game = game or prisoners_dilemma()
    if game.n_actions != (2, 2):
        raise GameError("repeated matches require a 2x2 stage game")
    history_a: List[int] = []
    history_b: List[int] = []
    score_a = score_b = 0.0
    cooperations = 0
    for round_index in range(rounds):
        if round_index == 0:
            move_a = strategy_a.first_move()
            move_b = strategy_b.first_move()
        else:
            move_a = strategy_a.next_move(history_a, history_b)
            move_b = strategy_b.next_move(history_b, history_a)
        score_a += game.payoff(0, (move_a, move_b))
        score_b += game.payoff(1, (move_a, move_b))
        cooperations += (move_a == COOPERATE) + (move_b == COOPERATE)
        history_a.append(move_a)
        history_b.append(move_b)
    return MatchResult(
        strategy_a=strategy_a.name,
        strategy_b=strategy_b.name,
        score_a=score_a,
        score_b=score_b,
        cooperation_rate=cooperations / (2 * rounds),
        rounds=rounds,
    )


def cooperation_sustainable(
    t: float = 5.0, r: float = 3.0, p: float = 1.0, s: float = 0.0,
    discount: float = 0.9,
) -> bool:
    """Folk-theorem check: can grim trigger sustain cooperation?

    Cooperation is an equilibrium of the infinitely repeated dilemma with
    discount factor d iff the one-shot temptation gain T - R is no more
    than the discounted future loss (R - P) * d / (1 - d).
    """
    if not 0.0 <= discount < 1.0:
        raise GameError("discount factor must be in [0, 1)")
    temptation_gain = t - r
    future_loss = (r - p) * discount / (1.0 - discount)
    return temptation_gain <= future_loss
