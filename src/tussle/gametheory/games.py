"""Normal-form games and the paper's tussle taxonomy.

"A game represents an abstraction of the underlying tussle environment,
and can range from purely conflicting games (so called zero-sum games)
where the values of actors in the network are in direct conflict, to
coordination games where actors have a common goal but fail to coordinate
their actions due to incentive problems" (§II-B).

:class:`NormalFormGame` stores an n-player game as numpy payoff arrays;
:func:`classify_game` places a 2-player game on the paper's spectrum
(zero-sum / coordination / mixed-motive), giving E12 its taxonomy rows.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GameError

__all__ = ["TussleClass", "NormalFormGame", "classify_game"]


class TussleClass(Enum):
    """Where a tussle sits on the conflict spectrum (§II-B)."""

    ZERO_SUM = "zero-sum"            # purely conflicting interests
    COORDINATION = "coordination"    # common goal, incentive to align
    MIXED_MOTIVE = "mixed-motive"    # "interests are not adverse, but simply different"
    HARMONY = "harmony"              # dominant strategies already align


class NormalFormGame:
    """An n-player normal-form game.

    Parameters
    ----------
    payoffs:
        A sequence of n numpy arrays, one per player, each with shape
        ``(m_1, ..., m_n)`` — ``payoffs[i][a_1, ..., a_n]`` is player i's
        payoff under joint action ``(a_1, ..., a_n)``. Every payoff must
        be finite; a NaN or infinite one raises :class:`GameError`.
    action_labels:
        Optional human-readable action names per player.
    name:
        Optional display name for the game.
    """

    def __init__(
        self,
        payoffs: Sequence[np.ndarray],
        action_labels: Optional[Sequence[Sequence[str]]] = None,
        name: str = "",
    ):
        if not payoffs:
            raise GameError("a game needs at least one player")
        arrays = [np.asarray(p, dtype=float) for p in payoffs]
        shape = arrays[0].shape
        n = len(arrays)
        if len(shape) != n:
            raise GameError(
                f"payoff arrays must have one axis per player "
                f"(got shape {shape} for {n} players)"
            )
        for i, arr in enumerate(arrays):
            if arr.shape != shape:
                raise GameError(
                    f"player {i} payoff shape {arr.shape} != {shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise GameError(f"player {i} has a NaN or infinite payoff")
        self.payoffs: List[np.ndarray] = arrays
        self.name = name
        if action_labels is not None:
            if len(action_labels) != n:
                raise GameError("need one label list per player")
            for i, labels in enumerate(action_labels):
                if len(labels) != shape[i]:
                    raise GameError(
                        f"player {i} has {shape[i]} actions but "
                        f"{len(labels)} labels"
                    )
            self.action_labels = [list(l) for l in action_labels]
        else:
            self.action_labels = [
                [f"a{j}" for j in range(shape[i])] for i in range(n)
            ]

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_players(self) -> int:
        return len(self.payoffs)

    @property
    def n_actions(self) -> Tuple[int, ...]:
        return self.payoffs[0].shape

    def payoff(self, player: int, profile: Sequence[int]) -> float:
        """Player's payoff under a pure joint action profile."""
        return float(self.payoffs[player][tuple(profile)])

    # ------------------------------------------------------------------
    # Pure-strategy analysis
    # ------------------------------------------------------------------
    def joint_profiles(self) -> Iterable[Tuple[int, ...]]:
        """Iterate every pure joint action profile."""
        return np.ndindex(*self.n_actions)

    def is_best_response(self, player: int, profile: Sequence[int]) -> bool:
        """Is the player's action a best response to the others' actions?"""
        profile = tuple(profile)
        current = self.payoff(player, profile)
        for alt in range(self.n_actions[player]):
            candidate = profile[:player] + (alt,) + profile[player + 1:]
            if self.payoff(player, candidate) > current + 1e-12:
                return False
        return True

    def pure_nash_equilibria(self) -> List[Tuple[int, ...]]:
        """Every pure-strategy Nash equilibrium (exhaustive check)."""
        return [
            tuple(int(a) for a in profile)
            for profile in self.joint_profiles()
            if all(self.is_best_response(p, profile) for p in range(self.n_players))
        ]

    def dominant_strategy(self, player: int) -> Optional[int]:
        """The player's weakly dominant action, if one exists."""
        n = self.n_actions[player]
        others_shapes = self.n_actions[:player] + self.n_actions[player + 1:]
        for candidate in range(n):
            dominant = True
            for others in np.ndindex(*others_shapes):
                profile = others[:player] + (candidate,) + others[player:]
                value = self.payoff(player, profile)
                for alt in range(n):
                    alt_profile = others[:player] + (alt,) + others[player:]
                    if self.payoff(player, alt_profile) > value + 1e-12:
                        dominant = False
                        break
                if not dominant:
                    break
            if dominant:
                return candidate
        return None

    def expected_payoff(self, player: int, strategies: Sequence[np.ndarray]) -> float:
        """Expected payoff under mixed strategies (one per player)."""
        if len(strategies) != self.n_players:
            raise GameError("need one mixed strategy per player")
        result = self.payoffs[player]
        # Contract each axis with the corresponding strategy, last first so
        # axis indices stay valid.
        for axis in reversed(range(self.n_players)):
            strategy = np.asarray(strategies[axis], dtype=float)
            if strategy.shape != (self.n_actions[axis],):
                raise GameError(
                    f"strategy for player {axis} has wrong length"
                )
            result = np.tensordot(result, strategy, axes=([axis], [0]))
        return float(result)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    def is_zero_sum(self, tolerance: float = 1e-9) -> bool:
        """Do payoffs sum to a constant across every profile?"""
        total = sum(self.payoffs)
        return bool(np.all(np.abs(total - total.flat[0]) <= tolerance))

    def is_symmetric(self) -> bool:
        """2-player: is the game symmetric (B = A^T)?"""
        if self.n_players != 2:
            raise GameError("symmetry check implemented for 2-player games")
        a, b = self.payoffs
        return a.shape[0] == a.shape[1] and bool(np.allclose(b, a.T))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<NormalFormGame {self.name or 'unnamed'} "
                f"players={self.n_players} actions={self.n_actions}>")


def classify_game(game: NormalFormGame) -> TussleClass:
    """Place a 2-player game on the paper's conflict spectrum.

    * ZERO_SUM — payoffs sum to a constant (purely conflicting);
    * HARMONY — both players have dominant strategies that form an
      equilibrium maximizing the payoff sum (no real tussle);
    * COORDINATION — multiple pure equilibria and players' payoffs are
      positively aligned across profiles (common goal, coordination risk);
    * MIXED_MOTIVE — everything else ("interests are not adverse, but
      simply different").
    """
    if game.n_players != 2:
        raise GameError("classification implemented for 2-player games")
    if game.is_zero_sum():
        return TussleClass.ZERO_SUM

    d0 = game.dominant_strategy(0)
    d1 = game.dominant_strategy(1)
    if d0 is not None and d1 is not None:
        welfare = sum(game.payoff(p, (d0, d1)) for p in range(2))
        best_welfare = max(
            sum(game.payoff(p, profile) for p in range(2))
            for profile in game.joint_profiles()
        )
        if welfare >= best_welfare - 1e-9:
            return TussleClass.HARMONY

    equilibria = game.pure_nash_equilibria()
    a, b = game.payoffs
    correlation_aligned = False
    flat_a, flat_b = a.ravel(), b.ravel()
    if np.std(flat_a) > 0 and np.std(flat_b) > 0:
        corr = float(np.corrcoef(flat_a, flat_b)[0, 1])
        correlation_aligned = corr > 0.5
    if len(equilibria) >= 2 and correlation_aligned:
        return TussleClass.COORDINATION
    return TussleClass.MIXED_MOTIVE
