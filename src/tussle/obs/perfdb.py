"""Perf-history ledger: a committed trend line for every benchmark.

Individual ``benchmarks/results/bench_<id>.json`` records are
machine-dependent and gitignored, so until now the bench trajectory
evaporated with every CI run.  This module consolidates them into one
committed, canonical-JSON ledger — ``benchmarks/history.json`` — that
future performance PRs can diff, trend, and gate against:

* :func:`ingest` appends the current results as one numbered run per
  benchmark (no timestamps: the ledger stays a deterministic function
  of the ingested records);
* :func:`trend` extracts a benchmark's wall-time trajectory across
  runs;
* :func:`check` is the regression gate behind
  ``python -m tussle.obs perf --check``: current wall time must stay
  within ``threshold`` × the best recorded wall time, with an absolute
  jitter floor so microbenchmarks don't flap.

Quarantine rule: wall-clock numbers live under each entry's ``"wall"``
key and are compared only ratio-wise against other wall numbers;
deterministic facts (event counts, shape verdicts) live under ``"det"``
and may be compared exactly.  This module never reads the host clock
itself — every wall number arrives via the sanctioned Profiler channel
inside the bench records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..errors import ObservabilityError

__all__ = ["HISTORY_SCHEMA", "load_history", "load_results", "ingest",
           "write_history", "trend", "check", "PerfFinding"]

#: Bumped when the ledger layout changes incompatibly.
HISTORY_SCHEMA = 1

#: Default regression threshold: current best-of-N wall time may not
#: exceed this multiple of the best wall time in the ledger.
DEFAULT_THRESHOLD = 3.0

#: Absolute jitter floor in seconds: wall deltas below this are noise
#: regardless of ratio (sub-millisecond benchmarks flap on shared CI).
DEFAULT_ABS_FLOOR = 0.005


def _empty_history() -> Dict[str, Any]:
    return {"schema": HISTORY_SCHEMA, "benchmarks": {}}


def load_history(path: Union[str, Path]) -> Dict[str, Any]:
    """Read the ledger; a missing file is an empty ledger."""
    source = Path(path)
    if not source.exists():
        return _empty_history()
    try:
        history = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(
            f"cannot read perf history {source}: {exc}") from exc
    if not isinstance(history, dict) or "benchmarks" not in history:
        raise ObservabilityError(
            f"{source}: not a perf history ledger (missing 'benchmarks')")
    if history.get("schema") != HISTORY_SCHEMA:
        raise ObservabilityError(
            f"{source}: ledger schema {history.get('schema')!r} "
            f"!= supported {HISTORY_SCHEMA}")
    return history


def load_results(results_dir: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """Read every ``bench_*.json`` record under ``results_dir``.

    Returns ``{bench_id: record}``; unreadable or non-record files
    raise — a truncated result should fail the gate loudly, not
    silently shrink coverage.
    """
    directory = Path(results_dir)
    records: Dict[str, Dict[str, Any]] = {}
    for path in sorted(directory.glob("bench_*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ObservabilityError(
                f"cannot read bench record {path}: {exc}") from exc
        bench_id = record.get("id") if isinstance(record, dict) else None
        if not bench_id:
            raise ObservabilityError(
                f"{path}: not a bench record (missing 'id')")
        records[bench_id] = record
    return records


def _entry_from_record(record: Dict[str, Any], run: int) -> Dict[str, Any]:
    """One ledger entry: deterministic facts + quarantined wall facts."""
    det: Dict[str, Any] = {
        "event_counts": dict(sorted(
            (record.get("event_counts") or {}).items())),
    }
    if record.get("shape_holds") is not None:
        det["shape_holds"] = record["shape_holds"]
    wall = {
        "seconds": record.get("wall_seconds"),
        "seconds_min": record.get("wall_seconds_min"),
        "calls": record.get("calls", 0),
    }
    return {"run": run, "det": det, "wall": wall}


def ingest(history: Dict[str, Any],
           results: Dict[str, Dict[str, Any]]) -> List[str]:
    """Append every result as the next run of its benchmark (in place).

    Returns the ingested benchmark ids, sorted.  Run numbers are the
    per-benchmark ledger position — deliberately not timestamps, so the
    ledger is a deterministic function of the records fed to it.
    """
    benchmarks = history.setdefault("benchmarks", {})
    ingested = []
    for bench_id in sorted(results):
        entries = benchmarks.setdefault(bench_id, [])
        entries.append(_entry_from_record(results[bench_id],
                                          run=len(entries) + 1))
        ingested.append(bench_id)
    return ingested


def write_history(path: Union[str, Path],
                  history: Dict[str, Any]) -> Path:
    """Write the ledger as reviewable canonical JSON (sorted, indented)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(history, indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )
    return target


def _wall_min(entry: Dict[str, Any]) -> Optional[float]:
    wall = entry.get("wall") or {}
    value = wall.get("seconds_min")
    if value is None:
        value = wall.get("seconds")
    return value


def trend(history: Dict[str, Any], bench_id: str) -> Dict[str, Any]:
    """A benchmark's wall-time trajectory across its recorded runs."""
    entries = (history.get("benchmarks") or {}).get(bench_id)
    if not entries:
        raise ObservabilityError(
            f"no history for benchmark {bench_id!r}")
    walls = [(entry["run"], _wall_min(entry)) for entry in entries]
    measured = [seconds for _, seconds in walls if seconds is not None]
    latest = measured[-1] if measured else None
    best = min(measured) if measured else None
    direction = "flat"
    if len(measured) >= 2:
        if measured[-1] > measured[0] * 1.05:
            direction = "slower"
        elif measured[-1] < measured[0] * 0.95:
            direction = "faster"
    return {
        "id": bench_id,
        "runs": len(entries),
        "wall_seconds_min": walls,
        "latest": latest,
        "best": best,
        "direction": direction,
    }


@dataclass
class PerfFinding:
    """One observation from the regression check."""

    bench_id: str
    #: "regression" | "counter-drift" | "new-benchmark" | "unmeasured"
    kind: str
    message: str
    blocking: bool

    def to_dict(self) -> Dict[str, Any]:
        return {"id": self.bench_id, "kind": self.kind,
                "message": self.message, "blocking": self.blocking}


def check(history: Dict[str, Any], results: Dict[str, Dict[str, Any]],
          threshold: float = DEFAULT_THRESHOLD,
          abs_floor: float = DEFAULT_ABS_FLOOR
          ) -> Tuple[List[PerfFinding], bool]:
    """Compare current results against the ledger baseline.

    Returns ``(findings, ok)``.  Blocking findings are wall-time
    regressions: current best-of-N above ``threshold`` × the ledger's
    best *and* above the absolute floor.  Counter drift (deterministic
    event counts changed vs. the latest ledger entry), benchmarks with
    no baseline, and benchmarks whose wall comparison had to be skipped
    (``unmeasured``: no wall time in the fresh record or in any ledger
    entry) are reported but do not block — counts legitimately move
    when instrumentation or workloads change, and a benchmark without
    walls has nothing to regress against.
    """
    if threshold <= 1.0:
        raise ObservabilityError(
            f"threshold must be > 1.0, got {threshold}")
    findings: List[PerfFinding] = []
    benchmarks = history.get("benchmarks") or {}
    for bench_id in sorted(results):
        record = results[bench_id]
        entries = benchmarks.get(bench_id)
        if not entries:
            findings.append(PerfFinding(
                bench_id, "new-benchmark",
                "no ledger baseline yet; ingest to start its history",
                blocking=False))
            continue
        current = record.get("wall_seconds_min")
        if current is None:
            current = record.get("wall_seconds")
        baselines = [w for w in (_wall_min(e) for e in entries)
                     if w is not None]
        if current is None or not baselines:
            findings.append(PerfFinding(
                bench_id, "unmeasured",
                "regression check skipped: no wall time in the "
                + ("fresh record" if current is None
                   else "any ledger entry"),
                blocking=False))
        else:
            best = min(baselines)
            limit = best * threshold
            if current > limit and (current - best) > abs_floor:
                findings.append(PerfFinding(
                    bench_id, "regression",
                    f"wall {current:.4f}s exceeds {threshold:g}x ledger "
                    f"best {best:.4f}s",
                    blocking=True))
        latest_counts = (entries[-1].get("det") or {}).get(
            "event_counts") or {}
        current_counts = dict(sorted(
            (record.get("event_counts") or {}).items()))
        if latest_counts and current_counts != latest_counts:
            changed = sorted(
                key for key in set(latest_counts) | set(current_counts)
                if latest_counts.get(key) != current_counts.get(key))
            findings.append(PerfFinding(
                bench_id, "counter-drift",
                "deterministic event counts moved vs. latest ledger "
                f"entry: {', '.join(changed[:6])}"
                + ("..." if len(changed) > 6 else ""),
                blocking=False))
    ok = not any(finding.blocking for finding in findings)
    return findings, ok
