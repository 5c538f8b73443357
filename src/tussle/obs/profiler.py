"""The Profiler: the one sanctioned wall-clock consumer in the package.

Everything else in the simulation stack is forbidden to read the host
clock (lint rules D104/D109 enforce it); this module is the explicit
exception, allowlisted in :data:`tussle.lint.determinism.WALL_CLOCK_ALLOWLIST`.

Quarantine rule: wall-clock measurements never enter a trace, a metrics
snapshot, or an :class:`~tussle.experiments.common.ExperimentResult` —
the channels covered by the seedcheck fingerprint.  They flow only into
the separate profile channel (:meth:`Profiler.snapshot`): the sweep
folds its workers' cell seconds into it, and the benchmarks' budgets
and perfbench's sweep metrics read it.  No file records it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["Profiler", "NullProfiler"]


class _KeyStats:
    __slots__ = ("calls", "total", "min", "max")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, seconds: float) -> None:
        self.calls += 1
        self.total += seconds
        if self.min is None or seconds < self.min:
            self.min = seconds
        if self.max is None or seconds > self.max:
            self.max = seconds


class Profiler:
    """Accumulates wall-clock durations per key.

    Usage::

        profiler = Profiler()
        with profiler.time("experiment"):
            run_e01()
        profiler.snapshot()["experiment"]["total_seconds"]
    """

    enabled = True

    def __init__(self) -> None:
        self._stats: Dict[str, _KeyStats] = {}

    @contextmanager
    def time(self, key: str) -> Iterator[None]:
        """Time the enclosed block under ``key``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stats.setdefault(key, _KeyStats()).record(
                time.perf_counter() - start)

    def record(self, key: str, seconds: float) -> None:
        """Fold an externally measured duration into ``key``."""
        self._stats.setdefault(key, _KeyStats()).record(float(seconds))

    def keys(self) -> List[str]:
        return sorted(self._stats)

    def total_seconds(self, key: str) -> float:
        stats = self._stats.get(key)
        return stats.total if stats is not None else 0.0

    def min_seconds(self, key: str) -> Optional[float]:
        stats = self._stats.get(key)
        return stats.min if stats is not None else None

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The quarantined wall-clock channel: key → timing summary."""
        return {
            key: {
                "calls": stats.calls,
                "total_seconds": stats.total,
                "min_seconds": stats.min,
                "max_seconds": stats.max,
                "mean_seconds": stats.total / stats.calls if stats.calls else 0.0,
            }
            for key, stats in sorted(self._stats.items())
        }


class NullProfiler(Profiler):
    """Default profiler: never reads the clock."""

    enabled = False

    @contextmanager
    def time(self, key: str) -> Iterator[None]:
        yield

    def record(self, key: str, seconds: float) -> None:
        pass
