"""Learning dynamics: how tussles evolve over repeated interaction.

"There is no 'final outcome' of these interactions, no stable point"
(§I) — except when there is: learning dynamics show which tussle games
settle and which churn. Provides alternating best-response dynamics for
2-player games.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import GameError
from ..obs.runtime import current as _obs_current
from .games import NormalFormGame
from .nash import best_response

__all__ = ["LearningResult", "best_response_dynamics"]


@dataclass
class LearningResult:
    """Outcome of a learning run.

    ``converged`` means the pure profile reached a fixed point before the
    iteration budget ran out or a cycle closed; ``trajectory`` records the
    (row, col) strategy pair of each iteration.
    """

    strategies: Tuple[np.ndarray, np.ndarray]
    converged: bool
    iterations: int
    trajectory: List[Tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def _check_two_player(game: NormalFormGame) -> Tuple[np.ndarray, np.ndarray]:
    if game.n_players != 2:
        raise GameError("learning dynamics implemented for 2-player games")
    return np.asarray(game.payoffs[0], float), np.asarray(game.payoffs[1], float)


def _observe_run(dynamics: str, result: LearningResult) -> LearningResult:
    """Record one learning run (span over iterations) and pass it through."""
    ctx = _obs_current()
    if ctx.tracer.enabled:
        span = ctx.tracer.begin("gametheory.learning", dynamics, 0.0)
        span.end(float(result.iterations), iterations=result.iterations,
                 converged=result.converged)
    if ctx.metrics.enabled:
        scope = ctx.metrics.scope("gametheory.learning")
        scope.counter("runs").inc()
        scope.counter("iterations").inc(result.iterations)
        scope.counter("converged_runs").inc(1 if result.converged else 0)
    return result


def best_response_dynamics(
    game: NormalFormGame,
    iterations: int = 500,
    initial: Tuple[int, int] = (0, 0),
) -> LearningResult:
    """Alternating pure best-response dynamics.

    Converges to a pure Nash equilibrium when one is reachable; otherwise
    cycles (detected and reported). This is the paper's move/counter-move
    adaptation pattern in its purest form.
    """
    _check_two_player(game)
    m, n = game.n_actions
    row, col = initial
    if not (0 <= row < m and 0 <= col < n):
        raise GameError(f"initial profile {initial} out of range")
    trajectory: List[Tuple[np.ndarray, np.ndarray]] = []
    seen = {(row, col): 0}
    converged = False
    iterations_used = iterations

    for t in range(1, iterations + 1):
        y = np.zeros(n)
        y[col] = 1.0
        new_row = best_response(game, 0, y)
        x = np.zeros(m)
        x[new_row] = 1.0
        new_col = best_response(game, 1, x)
        x_vec = np.zeros(m)
        x_vec[new_row] = 1.0
        y_vec = np.zeros(n)
        y_vec[new_col] = 1.0
        trajectory.append((x_vec, y_vec))
        if (new_row, new_col) == (row, col):
            converged = True
            iterations_used = t
            break
        row, col = new_row, new_col
        if (row, col) in seen:
            iterations_used = t
            break  # cycle
        seen[(row, col)] = t

    x = np.zeros(m)
    x[row] = 1.0
    y = np.zeros(n)
    y[col] = 1.0
    return _observe_run("best_response_dynamics", LearningResult(
        strategies=(x, y),
        converged=converged,
        iterations=iterations_used,
        trajectory=trajectory,
    ))
