"""Zero-sum game solver (von Neumann minimax via linear programming).

"The classic theory, first formalized by the seminal zero sum games work
of von Neumann and Morgernstern" (§II-B). Solves two-player zero-sum
games exactly with ``scipy.optimize.linprog``: the row player's optimal
mixed strategy maximizes the game value v subject to every column giving
at least v.  scipy is imported on the first solve, not with the package:
only E11/E12 solve zero-sum games.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GameError
from .games import NormalFormGame

__all__ = ["ZeroSumSolution", "solve_zero_sum", "minimax_value"]


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


def _solve_lp(matrix: np.ndarray) -> Tuple[np.ndarray, float]:
    """Optimal row strategy and value for row-player payoff matrix A.

    LP formulation: maximize v s.t. x^T A >= v (componentwise),
    sum(x) = 1, x >= 0. Variables are (x_1..x_m, v); linprog minimizes,
    so we minimize -v.

    Raises :class:`GameError` for an empty matrix, a NaN or infinite
    payoff, or a payoff range too wide to shift positive in floating
    point; none of those reaches the LP.
    """
    m, n = matrix.shape
    if m == 0 or n == 0:
        raise GameError(f"payoff matrix is empty (shape {matrix.shape})")
    # Shift payoffs positive (doesn't change optimal strategies).  The
    # largest shifted payoff bounds every other, and it is NaN or infinite
    # whenever any payoff is, so one finite check covers every entry.
    shift = float(matrix.min())
    if not np.isfinite(float(matrix.max()) - shift + 1.0):
        raise GameError("payoff matrix holds a non-finite payoff or a "
                        "range too wide to shift")
    shifted = matrix - shift + 1.0

    from scipy.optimize import linprog

    c = np.zeros(m + 1)
    c[-1] = -1.0  # maximize v
    # Constraints: for each column j: -sum_i x_i * A[i,j] + v <= 0
    a_ub = np.hstack([-shifted.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, None)] * m + [(None, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=bounds, method="highs")
    if not result.success:
        raise GameError(f"zero-sum LP failed: {result.message}")
    strategy = np.maximum(result.x[:m], 0.0)
    strategy = strategy / strategy.sum()
    value = result.x[-1] + shift - 1.0
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

    row_strategy, value = _solve_lp(matrix)
    # The column player solves the transposed game with negated payoffs.
    col_strategy, _ = _solve_lp(-matrix.T)
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
    _, value = _solve_lp(arr)
    return value
