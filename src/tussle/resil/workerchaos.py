"""Deterministic chaos planning for sweep *workers*.

:class:`WorkerChaos` decides — as a pure function of a seed and the
cell's identity — whether a worker processing that cell should be made
to die or hang on a given attempt.  This is how the chaos gate forces
"30% of cells crash or hang on first attempt" reproducibly: the doomed
set is the same for every run with the same chaos seed, regardless of
worker scheduling order or process ids.

The digest is :func:`tussle.canon.derive_seed` over labelled identity
components, the same derivation that seeds sweep cells; it lives in the
leaf :mod:`tussle.canon`, so :mod:`tussle.resil` stays import-free of
:mod:`tussle.sweep` — the sweep executors import *us*, not the other
way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..canon import derive_seed
from ..errors import ResilienceError

__all__ = ["WorkerChaos", "CHAOS_MODES"]

#: Failure modes a chaos directive can request of a worker, in the fixed
#: order used when cycling through them for successive doomed cells.
CHAOS_MODES: Tuple[str, ...] = ("exit", "kill", "hang")


@dataclass(frozen=True)
class WorkerChaos:
    """Plan which sweep cells get a crashing/hanging worker, and how.

    Parameters
    ----------
    seed:
        Chaos seed; the doomed set is a pure function of it.
    fraction:
        Fraction of cells (by digest, approximately) whose *first*
        ``max_attempts`` attempts are sabotaged.
    modes:
        Failure modes to cycle through for doomed cells.  ``"exit"``
        makes the worker call ``os._exit``, ``"kill"`` makes it SIGKILL
        itself, ``"hang"`` makes it sleep past any per-cell timeout.
    max_attempts:
        Sabotage attempts ``0 .. max_attempts-1``; later attempts run
        clean, so a retrying executor always recovers the cell.
    """

    seed: int
    fraction: float = 0.3
    modes: Tuple[str, ...] = CHAOS_MODES
    max_attempts: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ResilienceError(
                f"chaos fraction must be within [0, 1], got {self.fraction}")
        if not self.modes:
            raise ResilienceError("chaos modes must be non-empty")
        for mode in self.modes:
            if mode not in CHAOS_MODES:
                raise ResilienceError(
                    f"unknown chaos mode {mode!r}; expected one of "
                    f"{CHAOS_MODES}")
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    def doomed(self, experiment_id: str, params_json: str,
               base_seed: int) -> bool:
        """Is this cell in the sabotaged set?"""
        d = derive_seed(self.seed, "doom", experiment_id, params_json,
                        str(int(base_seed)))
        return (d % 10_000) < self.fraction * 10_000

    def mode_for(self, experiment_id: str, params_json: str,
                 base_seed: int, attempt: int) -> Optional[str]:
        """Failure mode for this cell/attempt, or ``None`` to run clean."""
        if attempt >= self.max_attempts:
            return None
        if not self.doomed(experiment_id, params_json, base_seed):
            return None
        d = derive_seed(self.seed, "mode", experiment_id, params_json,
                        str(int(base_seed)), str(int(attempt)))
        return self.modes[d % len(self.modes)]
