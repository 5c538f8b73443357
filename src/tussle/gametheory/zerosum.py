"""Zero-sum game solver (von Neumann minimax by support enumeration).

"The classic theory, first formalized by the seminal zero sum games work
of von Neumann and Morgernstern" (§II-B). Solves two-player zero-sum
games exactly in numpy. Shapley and Snow (1950) showed that every matrix
game has an optimal strategy pair on a square, nonsingular submatrix (a
kernel) whose rows and columns all earn the value, so equal-size supports
suffice: for each pair of them, the row player's equalizing strategy
solves one small linear system, and the feasible one that guarantees the
most is optimal. The pairs number ``C(m + n, m) - 1``, so a game with
more than :data:`MAX_SUPPORT_PAIRS` of them is refused, not enumerated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GameError
from .games import NormalFormGame

__all__ = ["ZeroSumSolution", "solve_zero_sum", "minimax_value"]

#: The most support pairs a solve enumerates. Every game up to 5x5 (251
#: pairs; the largest the project solves) fits, and so do 4x6, 3x9, 2x20
#: and 1x251.
MAX_SUPPORT_PAIRS = 251


@dataclass
class ZeroSumSolution:
    """Optimal mixed strategies and the value of a zero-sum game.

    ``value`` is from the row player's perspective (player 0).
    """

    row_strategy: np.ndarray
    col_strategy: np.ndarray
    value: float

    def support(self, player: int, tolerance: float = 1e-9) -> Tuple[int, ...]:
        strategy = self.row_strategy if player == 0 else self.col_strategy
        return tuple(int(i) for i in np.where(strategy > tolerance)[0])


def _maximin(matrix: np.ndarray) -> Tuple[np.ndarray, float]:
    """Optimal row strategy and value for row-player payoff matrix A.

    For each pair of equal-size row and column supports (R, C), solves the
    equalizing system ``S[R, C]^T x = v 1, sum(x) = 1`` on the shifted
    matrix S, and keeps x if it is a distribution that guarantees at least
    v against every column. The kept x with the largest v is optimal;
    on a tie the first found, in ``itertools.combinations`` order, wins.

    Raises :class:`GameError` for an empty matrix, one with more than
    :data:`MAX_SUPPORT_PAIRS` support pairs, a NaN or infinite payoff, or
    a payoff range too wide to shift positive in floating point.
    """
    m, n = matrix.shape
    if m == 0 or n == 0:
        raise GameError(f"payoff matrix is empty (shape {matrix.shape})")
    pairs = math.comb(m + n, m) - 1
    if pairs > MAX_SUPPORT_PAIRS:
        raise GameError(f"a {m}x{n} game has {pairs} support pairs, more "
                        f"than the {MAX_SUPPORT_PAIRS} the solver enumerates")
    # Shift payoffs positive (doesn't change optimal strategies), so the
    # value is positive and every kernel's system is nonsingular.  The
    # largest shifted payoff bounds every other, and it is NaN or infinite
    # whenever any payoff is, so one finite check covers every entry.
    shift = float(matrix.min())
    if not np.isfinite(float(matrix.max()) - shift + 1.0):
        raise GameError("payoff matrix holds a non-finite payoff or a "
                        "range too wide to shift")
    shifted = matrix - shift + 1.0

    # k = 1 keeps every row's pure security level, so best is always set.
    best, best_value = None, -np.inf
    for k in range(1, min(m, n) + 1):
        system = np.zeros((k + 1, k + 1))
        system[:k, k] = -1.0
        system[k, :k] = 1.0
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                system[:k, :k] = shifted[np.ix_(rows, cols)].T
                try:
                    solution = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    continue
                x, v = solution[:k], solution[k]
                # Written so that a NaN solution fails every test.
                if not (v > best_value and np.all(x >= -1e-9)):
                    continue
                strategy = np.zeros(m)
                strategy[list(rows)] = x
                if np.all(strategy @ shifted >= v - 1e-9):
                    best, best_value = strategy, v
    strategy = np.maximum(best, 0.0)
    strategy = strategy / strategy.sum()
    value = best_value + shift - 1.0
    return strategy, float(value)


def solve_zero_sum(game: NormalFormGame) -> ZeroSumSolution:
    """Solve a 2-player zero-sum game exactly.

    Raises :class:`GameError` if the game is not (constant-sum equivalent
    to) zero-sum. Constant-sum games are normalized internally.
    """
    if game.n_players != 2:
        raise GameError("zero-sum solver handles 2-player games")
    if not game.is_zero_sum():
        raise GameError("game is not zero-sum; use the Nash solver instead")
    # A constant-sum game is solved as the zero-sum game of the row
    # player's payoffs: the constant does not change optimal strategies.
    matrix = np.asarray(game.payoffs[0], dtype=float)

    row_strategy, value = _maximin(matrix)
    # The column player solves the transposed game with negated payoffs.
    col_strategy, _ = _maximin(-matrix.T)
    return ZeroSumSolution(
        row_strategy=row_strategy,
        col_strategy=col_strategy,
        value=value,
    )


def minimax_value(matrix: np.ndarray) -> float:
    """The value of the zero-sum game with row payoff ``matrix``."""
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise GameError("payoff matrix must be 2-dimensional")
    _, value = _maximin(arr)
    return value
