"""Sweep telemetry: a schema-versioned, two-channel JSONL event stream.

The sweep fabric needs to be *watchable* — which cells ran where, what
was cached, what was retried, how long everything took — without
breaking the determinism contract (merged sweep output is a pure
function of the spec and the code fingerprint).  Telemetry therefore
splits into two channels, mirroring the worker protocol in
:mod:`tussle.sweep.executors`:

**Deterministic channel**
    Cell lifecycle facts that are pure functions of the sweep spec, the
    cache state, and the (deterministic) cell results: ``cell_dispatched``,
    ``cell_cache_hit``, ``cell_completed``.  Records are ordered by cell
    identity plus a fixed per-cell logical sequence — *not* by emission
    order — so the serialized stream is byte-identical regardless of
    worker count, completion order, or worker sabotage (the chaos gate
    asserts this).  Retry/latency facts never appear here.

**Quarantined wall-clock channel**
    Everything timing- or placement-dependent: per-attempt starts,
    retries, worker deaths, timeouts, worker lifecycle, and per-cell
    latencies.  Timestamps are host-clock offsets from stream start;
    this file is a sibling of the deterministic one (``<path>.wall.jsonl``)
    and must never feed a merge, a cache, or a seedcheck fingerprint.

This module reads the host clock for the quarantined channel and is
allowlisted in :data:`tussle.lint.determinism.WALL_CLOCK_ALLOWLIST`;
the deterministic channel never touches it.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..canon import canonical_json

__all__ = ["SweepTelemetry", "NullSweepTelemetry", "TELEMETRY_SCHEMA",
           "wall_path_for"]

#: Bumped when either channel's record layout changes incompatibly.
TELEMETRY_SCHEMA = 1

#: Fixed per-cell logical ordinals for deterministic-channel events.
#: Dispatch and cache-hit are mutually exclusive for one cell, so they
#: share ordinal 0; completion always sorts after either.
_DET_ORDINALS = {"cell_dispatched": 0, "cell_cache_hit": 0,
                 "cell_completed": 1}

#: Counter keys maintained on the deterministic channel.
_DET_COUNTERS = ("cells_total", "cache_hits", "dispatched",
                 "completed_ok", "completed_error", "completed_failed")

#: Counter keys maintained on the quarantined wall channel.
_WALL_COUNTERS = ("attempts", "retries", "worker_deaths", "timeouts")


def wall_path_for(path: Union[str, Path]) -> Path:
    """The sibling wall-channel file for a deterministic-channel path."""
    target = Path(path)
    suffix = target.suffix
    if suffix == ".jsonl":
        return target.with_suffix(".wall.jsonl")
    return target.with_name(target.name + ".wall")


class SweepTelemetry:
    """Collects both telemetry channels for one sweep run.

    The scheduler emits the deterministic channel; executors emit the
    wall channel (they receive the telemetry object via their
    ``telemetry`` attribute).  ``enabled`` is the fast-path switch, as
    for the other observability facilities.
    """

    enabled = True

    def __init__(self) -> None:
        self._det: List[Tuple[tuple, int, Dict[str, Any]]] = []
        self._wall: List[Dict[str, Any]] = []
        self.det_counters: Dict[str, int] = {k: 0 for k in _DET_COUNTERS}
        self.wall_counters: Dict[str, int] = {k: 0 for k in _WALL_COUNTERS}
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    # Deterministic channel (no clock access on any path below)
    # ------------------------------------------------------------------
    def _det_event(self, event: str, cell: tuple,
                   **fields: Any) -> None:
        record = {
            "kind": "cell",
            "event": event,
            "experiment_id": cell[0],
            "params_json": cell[1],
            "base_seed": cell[2],
        }
        record.update(fields)
        self._det.append((cell, _DET_ORDINALS[event], record))

    def cell_dispatched(self, cell: tuple) -> None:
        """A cache miss handed to the executor (identity triple)."""
        self.det_counters["cells_total"] += 1
        self.det_counters["dispatched"] += 1
        self._det_event("cell_dispatched", cell)

    def cell_cache_hit(self, cell: tuple) -> None:
        """A cell served from the result cache."""
        self.det_counters["cells_total"] += 1
        self.det_counters["cache_hits"] += 1
        self._det_event("cell_cache_hit", cell)

    def cell_completed(self, cell: tuple, status: str,
                       shape_holds: Optional[bool] = None) -> None:
        """A cell's final verdict entered the merge (any source)."""
        key = f"completed_{status}" if f"completed_{status}" \
            in self.det_counters else "completed_failed"
        self.det_counters[key] += 1
        self._det_event("cell_completed", cell, status=status,
                        shape_holds=shape_holds)

    # ------------------------------------------------------------------
    # Quarantined wall-clock channel
    # ------------------------------------------------------------------
    def _now(self) -> float:
        now = time.monotonic()
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    def elapsed(self) -> float:
        """Quarantined wall seconds since the first wall-channel touch."""
        return self._now()

    def wall_event(self, event: str, **fields: Any) -> None:
        """Record one wall-channel event stamped with a stream offset."""
        record: Dict[str, Any] = {"kind": "wall", "event": event,
                                  "t": round(self._now(), 6)}
        record.update(fields)
        self._wall.append(record)

    def cell_attempt(self, cell: tuple, attempt: int,
                     worker: str) -> None:
        """One attempt at a cell started on ``worker``."""
        self.wall_counters["attempts"] += 1
        self.wall_event("cell_attempt", experiment_id=cell[0],
                        base_seed=cell[2], attempt=attempt, worker=worker)

    def cell_retried(self, cell: tuple, attempt: int, reason: str,
                     delay: float) -> None:
        """An infrastructure failure scheduled a retry."""
        self.wall_counters["retries"] += 1
        if "worker-death" in reason:
            self.wall_counters["worker_deaths"] += 1
        elif "timeout" in reason:
            self.wall_counters["timeouts"] += 1
        self.wall_event("cell_retried", experiment_id=cell[0],
                        base_seed=cell[2], attempt=attempt, reason=reason,
                        delay=round(delay, 6))

    def cell_finished(self, cell: tuple, worker: str,
                      seconds: float, status: str) -> None:
        """A cell's (final) attempt finished; latency in wall seconds."""
        self.wall_event("cell_finished", experiment_id=cell[0],
                        base_seed=cell[2], worker=worker,
                        seconds=round(seconds, 6), status=status)

    def worker_started(self, worker: str) -> None:
        self.wall_event("worker_started", worker=worker)

    def worker_exited(self, worker: str, reason: str) -> None:
        self.wall_event("worker_exited", worker=worker, reason=reason)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def deterministic_lines(self) -> List[str]:
        """The deterministic channel as canonical JSONL lines.

        A meta header, then cell events sorted by (cell identity,
        logical ordinal), then a counter summary — all pure functions of
        the sweep spec, cache state, and cell verdicts, so the joined
        bytes are identical whatever the worker count, completion
        order, or chaos plan.
        """
        header = {"kind": "meta", "schema": TELEMETRY_SCHEMA,
                  "channel": "deterministic"}
        ordered = sorted(self._det, key=lambda item: (item[0], item[1]))
        summary = {"kind": "summary",
                   "counters": dict(sorted(self.det_counters.items()))}
        return ([canonical_json(header)]
                + [canonical_json(record) for _, _, record in ordered]
                + [canonical_json(summary)])

    def wall_lines(self) -> List[str]:
        """The quarantined channel as JSONL lines, in emission order."""
        header = {"kind": "meta", "schema": TELEMETRY_SCHEMA,
                  "channel": "wall"}
        summary = {"kind": "summary",
                   "counters": dict(sorted(self.wall_counters.items()))}
        return ([canonical_json(header)]
                + [canonical_json(record) for record in self._wall]
                + [canonical_json(summary)])

    def to_deterministic_jsonl(self) -> str:
        return "\n".join(self.deterministic_lines()) + "\n"

    def to_wall_jsonl(self) -> str:
        return "\n".join(self.wall_lines()) + "\n"

    def write(self, path: Union[str, Path]) -> Tuple[Path, Path]:
        """Write both channels; returns (deterministic path, wall path).

        The deterministic channel goes to ``path``; the wall channel to
        the :func:`wall_path_for` sibling, keeping the byte-comparable
        file free of timing data.
        """
        det_path = Path(path)
        det_path.parent.mkdir(parents=True, exist_ok=True)
        det_path.write_text(self.to_deterministic_jsonl(), encoding="utf-8")
        wall_path = wall_path_for(det_path)
        wall_path.write_text(self.to_wall_jsonl(), encoding="utf-8")
        return det_path, wall_path

    def summary_line(self, wall_seconds: Optional[float] = None) -> str:
        """One human line over both channels' counters."""
        det, wall = self.det_counters, self.wall_counters
        failures = det["completed_error"] + det["completed_failed"]
        parts = [
            f"{det['cells_total']} cells",
            f"{det['cache_hits']} cache hits",
            f"{wall['retries']} retries",
            f"{failures} failures",
        ]
        if wall_seconds is not None:
            parts.append(f"{wall_seconds:.2f}s wall")
        return "sweep: " + ", ".join(parts)


class NullSweepTelemetry(SweepTelemetry):
    """Disabled telemetry: every hook is a no-op, nothing is recorded."""

    enabled = False

    def _det_event(self, event: str, cell: tuple, **fields: Any) -> None:
        pass

    def elapsed(self) -> float:
        return 0.0

    def cell_dispatched(self, cell: tuple) -> None:
        pass

    def cell_cache_hit(self, cell: tuple) -> None:
        pass

    def cell_completed(self, cell: tuple, status: str,
                       shape_holds: Optional[bool] = None) -> None:
        pass

    def wall_event(self, event: str, **fields: Any) -> None:
        pass

    def cell_attempt(self, cell: tuple, attempt: int, worker: str) -> None:
        pass

    def cell_retried(self, cell: tuple, attempt: int, reason: str,
                     delay: float) -> None:
        pass

    def cell_finished(self, cell: tuple, worker: str, seconds: float,
                      status: str) -> None:
        pass

    def worker_started(self, worker: str) -> None:
        pass

    def worker_exited(self, worker: str, reason: str) -> None:
        pass
