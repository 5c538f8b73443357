"""Benchmark record emitter: machine-readable perf baselines.

Every benchmark writes a ``benchmarks/results/bench_<id>.json`` next to
its human-readable ``.txt`` table so future performance PRs have a
measured baseline to beat: wall time (from the quarantined
:class:`~tussle.obs.profiler.Profiler` channel) and deterministic event
and metric counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .metrics import Metrics
from .profiler import Profiler

__all__ = ["BenchRecord", "bench_record", "write_bench_record"]

#: Bumped when the record layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class BenchRecord:
    """One benchmark's machine-readable perf record."""

    bench_id: str
    wall_seconds: Optional[float] = None
    wall_seconds_min: Optional[float] = None
    calls: int = 0
    event_counts: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    profile: Dict[str, Any] = field(default_factory=dict)
    shape_holds: Optional[bool] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "id": self.bench_id,
            "wall_seconds": self.wall_seconds,
            "wall_seconds_min": self.wall_seconds_min,
            "calls": self.calls,
            "event_counts": dict(sorted(self.event_counts.items())),
            "metrics": self.metrics,
            "profile": self.profile,
        }
        if self.shape_holds is not None:
            data["shape_holds"] = self.shape_holds
        data.update(self.extra)
        return data


def bench_record(
    bench_id: str,
    metrics: Optional[Metrics] = None,
    profiler: Optional[Profiler] = None,
    timing_key: str = "experiment",
    result: Optional[Any] = None,
    **extra: Any,
) -> BenchRecord:
    """Assemble a :class:`BenchRecord` from the observability facilities.

    ``metrics`` supplies the deterministic channel (event counts per
    scope); ``profiler`` supplies the quarantined wall-clock channel
    under ``timing_key``; ``result`` (an ``ExperimentResult``-shaped
    object) contributes the shape verdict.
    """
    record = BenchRecord(bench_id=bench_id, extra=dict(extra))

    if metrics is not None:
        snapshot = metrics.snapshot()
        record.metrics = snapshot
        counts: Dict[str, int] = {}
        for scope_name, scope_data in snapshot.items():
            for name, value in scope_data.get("counters", {}).items():
                counts[f"{scope_name}/{name}"] = value
        record.event_counts = counts

    if profiler is not None:
        profile = profiler.snapshot()
        record.profile = profile
        timing = profile.get(timing_key)
        if timing is not None:
            record.calls = timing["calls"]
            record.wall_seconds = timing["mean_seconds"]
            record.wall_seconds_min = timing["min_seconds"]

    if result is not None:
        record.shape_holds = getattr(result, "shape_holds", None)

    return record


def write_bench_record(results_dir: Union[str, Path],
                       record: BenchRecord) -> Path:
    """Write ``bench_<id>.json`` into ``results_dir``; returns the path."""
    directory = Path(results_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"bench_{record.bench_id.lower()}.json"
    path.write_text(
        json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
