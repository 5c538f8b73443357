"""Nash equilibria of general-sum games (John Nash, §II-B).

Implements support enumeration for two-player general-sum games: for every
pair of equal-size supports, solve the indifference system and check
feasibility. Exact for nondegenerate bimatrix games; pure equilibria of
n-player games come from :meth:`NormalFormGame.pure_nash_equilibria`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import GameError
from .games import NormalFormGame

__all__ = ["MixedEquilibrium", "support_enumeration", "best_response"]


@dataclass
class MixedEquilibrium:
    """A mixed-strategy Nash equilibrium of a 2-player game."""

    strategies: Tuple[np.ndarray, np.ndarray]
    payoffs: Tuple[float, float]

    def is_pure(self, tolerance: float = 1e-9) -> bool:
        return all(np.max(s) > 1.0 - tolerance for s in self.strategies)

    def pure_profile(self) -> Optional[Tuple[int, int]]:
        if not self.is_pure():
            return None
        return (int(np.argmax(self.strategies[0])),
                int(np.argmax(self.strategies[1])))


def best_response(game: NormalFormGame, player: int,
                  opponent_strategy: np.ndarray) -> int:
    """The player's pure best response to an opponent mixed strategy.

    2-player only; ties break toward the lowest action index.
    """
    if game.n_players != 2:
        raise GameError("best_response handles 2-player games")
    a = game.payoffs[player]
    opponent_strategy = np.asarray(opponent_strategy, dtype=float)
    if player == 0:
        expected = a @ opponent_strategy
    else:
        expected = opponent_strategy @ a
    return int(np.argmax(expected))


def _solve_support(
    a: np.ndarray, b: np.ndarray,
    support_row: Tuple[int, ...], support_col: Tuple[int, ...],
    tolerance: float,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Solve the indifference equations for one support pair."""
    k = len(support_row)
    m, n = a.shape

    # Column player's strategy y makes the row player indifferent across
    # support_row: A[i,:] y = v for all i in support, sum y = 1, y>=0 on
    # support, 0 off support.
    def solve_side(payoff: np.ndarray, own_support: Tuple[int, ...],
                   other_support: Tuple[int, ...]) -> Optional[np.ndarray]:
        # Unknowns: probabilities on other_support plus common value v.
        size = len(other_support)
        rows = []
        rhs = []
        for idx in range(len(own_support) - 1):
            i, j = own_support[idx], own_support[idx + 1]
            rows.append([payoff[i, c] - payoff[j, c] for c in other_support] + [0.0])
            rhs.append(0.0)
        rows.append([1.0] * size + [0.0])
        rhs.append(1.0)
        # Add the value equation to square the system.
        i0 = own_support[0]
        rows.append([payoff[i0, c] for c in other_support] + [-1.0])
        rhs.append(0.0)
        matrix = np.array(rows, dtype=float)
        vector = np.array(rhs, dtype=float)
        try:
            solution = np.linalg.solve(matrix, vector)
        except np.linalg.LinAlgError:
            return None
        probabilities = solution[:size]
        if np.any(probabilities < -tolerance):
            return None
        full = np.zeros(payoff.shape[1])
        for c, p in zip(other_support, probabilities):
            full[c] = max(0.0, p)
        total = full.sum()
        if total <= 0:
            return None
        return full / total

    y = solve_side(a, support_row, support_col)
    if y is None:
        return None
    x = solve_side(b.T, support_col, support_row)
    if x is None:
        return None
    return x, y


def support_enumeration(
    game: NormalFormGame, tolerance: float = 1e-8, max_support: Optional[int] = None
) -> List[MixedEquilibrium]:
    """All Nash equilibria of a 2-player game by support enumeration.

    Enumerates equal-size support pairs (sufficient for nondegenerate
    games), solves the indifference system, and verifies the equilibrium
    conditions. ``max_support`` bounds support size for large games.
    """
    if game.n_players != 2:
        raise GameError("support enumeration handles 2-player games")
    a, b = (np.asarray(p, dtype=float) for p in game.payoffs)
    m, n = a.shape
    limit = max_support or min(m, n)
    equilibria: List[MixedEquilibrium] = []

    for k in range(1, limit + 1):
        for support_row in itertools.combinations(range(m), k):
            for support_col in itertools.combinations(range(n), k):
                solved = _solve_support(a, b, support_row, support_col, tolerance)
                if solved is None:
                    continue
                x, y = solved
                # Verify supports match and no profitable deviation exists.
                row_payoffs = a @ y
                col_payoffs = x @ b
                v_row = float(x @ row_payoffs)
                v_col = float(col_payoffs @ y)
                if np.any(row_payoffs > v_row + 1e-7):
                    continue
                if np.any(col_payoffs > v_col + 1e-7):
                    continue
                if any(x[i] > tolerance and i not in support_row for i in range(m)):
                    continue
                if any(y[j] > tolerance and j not in support_col for j in range(n)):
                    continue
                if any(np.allclose(x, eq.strategies[0], atol=1e-6)
                       and np.allclose(y, eq.strategies[1], atol=1e-6)
                       for eq in equilibria):
                    continue
                equilibria.append(
                    MixedEquilibrium(strategies=(x, y), payoffs=(v_row, v_col))
                )
    return equilibria
