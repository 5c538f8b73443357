"""Perf ledger: one perfbench result per workload and run.

``benchmarks/history.json`` keeps, for every workload that
``BENCHMARK.json`` declares, a run-numbered list of entries.  One entry
is what ``perfbench/run.py`` measured on one tree: the end-to-end
metrics of a ``--trace 0`` run under ``"wall"``, the per-layer metrics
of a ``--trace 1`` run under ``"layers"``, and the operations both runs
attempted and failed under ``"det"``.  Units, directions and bounds
stay in ``BENCHMARK.json``; the ledger holds only numbers, and no
timestamps, so it is a deterministic function of the results fed to it.

* :func:`ingest` appends the entry built from perfbench result files;
* :func:`check` gates each workload's latest entry against the one
  before it at ``BENCHMARK.json``'s end-to-end bounds (the regression
  gate behind ``python -m tussle.obs perf --check``);
* :func:`moves` lists every metric's previous value, latest value and
  relative move.

This module never reads the host clock: every number arrives in a
perfbench result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError

__all__ = ["HISTORY_SCHEMA", "load_benchmark", "load_history",
           "write_history", "read_result", "ingest", "check", "moves",
           "PerfFinding"]

#: Bumped when the ledger layout changes incompatibly.
HISTORY_SCHEMA = 2

PathLike = Union[str, Path]


def _read_json(path: PathLike, what: str) -> Any:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read {what} {path}: {exc}") from exc


def load_benchmark(path: PathLike) -> Dict[str, Any]:
    """Read the benchmark contract (``BENCHMARK.json``)."""
    benchmark = _read_json(path, "benchmark contract")
    if not isinstance(benchmark, dict) or not all(
            key in benchmark for key in ("workloads", "end_to_end",
                                         "per_layer")):
        raise ObservabilityError(f"{path}: not a benchmark contract")
    return benchmark


def load_history(path: PathLike) -> Dict[str, Any]:
    """Read the ledger; a missing file is an empty ledger."""
    if not Path(path).exists():
        return {"schema": HISTORY_SCHEMA, "workloads": {}}
    history = _read_json(path, "perf history")
    if not isinstance(history, dict) or "workloads" not in history:
        raise ObservabilityError(
            f"{path}: not a perf history ledger (missing 'workloads')")
    if history.get("schema") != HISTORY_SCHEMA:
        raise ObservabilityError(
            f"{path}: ledger schema {history.get('schema')!r} "
            f"!= supported {HISTORY_SCHEMA}")
    return history


def write_history(path: PathLike, history: Dict[str, Any]) -> Path:
    """Write the ledger as reviewable canonical JSON (sorted, indented)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(history, indent=2, sort_keys=True, allow_nan=False)
        + "\n", encoding="utf-8")
    return target


def read_result(path: PathLike) -> Dict[str, Any]:
    """The perfbench result on the last line of ``path``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        result = json.loads(lines[-1])
    except (OSError, IndexError, json.JSONDecodeError) as exc:
        raise ObservabilityError(
            f"{path}: last line is not a perfbench result ({exc})") from exc
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if (not isinstance(metrics, dict)
            or not all(isinstance(m, dict) and "value" in m
                       for m in metrics.values())
            or not all(isinstance(result.get(key), int)
                       for key in ("attempted", "failed"))):
        raise ObservabilityError(
            f"{path}: last line is not a perfbench result")
    return result


def _names(benchmark: Dict[str, Any], section: str) -> List[str]:
    return [metric["name"] for metric in benchmark[section]]


def _missing(benchmark: Dict[str, Any], entry: Dict[str, Any]) -> List[str]:
    return ([n for n in _names(benchmark, "end_to_end")
             if n not in entry.get("wall", {})]
            + [n for n in _names(benchmark, "per_layer")
               if n not in entry.get("layers", {})])


def ingest(history: Dict[str, Any], benchmark: Dict[str, Any],
           workload: str, results: Sequence[Dict[str, Any]]
           ) -> Dict[str, Any]:
    """Merge perfbench ``results`` into the workload's next entry.

    Appends the entry (in place) and returns it.  Raises without
    touching ``history`` when the workload is not in ``benchmark``, the
    merged metrics miss a name ``benchmark`` lists, or the entry repeats
    the workload's previous one.
    """
    if workload not in [w["name"] for w in benchmark["workloads"]]:
        raise ObservabilityError(
            f"workload {workload!r} is not in the benchmark contract")
    values = {name: metric["value"] for result in results
              for name, metric in result["metrics"].items()}
    entry: Dict[str, Any] = {
        "wall": {n: values[n] for n in _names(benchmark, "end_to_end")
                 if n in values},
        "layers": {n: values[n] for n in _names(benchmark, "per_layer")
                   if n in values},
        "det": {key: sum(result[key] for result in results)
                for key in ("attempted", "failed")},
    }
    missing = _missing(benchmark, entry)
    if missing:
        raise ObservabilityError(
            f"{workload}: the results miss {len(missing)} metric(s): "
            + ", ".join(missing[:6]) + (", ..." if len(missing) > 6 else ""))
    entries = history["workloads"].setdefault(workload, [])
    if entries and {k: v for k, v in entries[-1].items() if k != "run"} \
            == entry:
        raise ObservabilityError(
            f"{workload}: the entry repeats run {entries[-1]['run']}")
    entry["run"] = len(entries) + 1
    entries.append(entry)
    return entry


@dataclass
class PerfFinding:
    """One blocking finding of the regression gate."""

    workload: str
    #: "missing" | "incomplete" | "failed" | "regression"
    kind: str
    message: str


def check(history: Dict[str, Any],
          benchmark: Dict[str, Any]) -> List[PerfFinding]:
    """Gate each workload's latest entry; returns the blocking findings.

    A workload blocks when it has no entry, when its latest entry misses
    a listed metric or failed an operation, or when an end-to-end metric
    moved the wrong way by more than its bound since the previous entry:
    a ``lower`` metric past ``previous * (1 + bound)``, a ``higher`` one
    below ``previous * (1 - bound)``.  Per-layer moves never block.
    """
    findings: List[PerfFinding] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        entries = history["workloads"].get(workload)
        if not entries:
            findings.append(PerfFinding(workload, "missing",
                                        "no ledger entry"))
            continue
        latest = entries[-1]
        missing = _missing(benchmark, latest)
        if missing:
            findings.append(PerfFinding(
                workload, "incomplete",
                f"run {latest['run']} misses {', '.join(missing)}"))
        det = latest.get("det", {})
        if det.get("failed", 0) > 0:
            findings.append(PerfFinding(
                workload, "failed",
                f"run {latest['run']} failed {det['failed']} of "
                f"{det.get('attempted')} operations"))
        if len(entries) < 2:
            continue
        previous = entries[-2]
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            before = previous.get("wall", {}).get(name)
            after = latest.get("wall", {}).get(name)
            if before is None or after is None:
                continue
            if (after > before * (1 + bound) if metric["better"] == "lower"
                    else after < before * (1 - bound)):
                findings.append(PerfFinding(
                    workload, "regression",
                    f"{name} {before!r} -> {after!r} {metric['unit']} "
                    f"(run {previous['run']} -> {latest['run']}) is worse "
                    f"than its {bound:.0%} bound"))
    return findings


def moves(history: Dict[str, Any], benchmark: Dict[str, Any],
          workload: str
          ) -> List[Tuple[str, str, Optional[float], float, Optional[float]]]:
    """``(metric, unit, previous, latest, relative move)`` rows, end-to-end
    metrics first, for the workload's last two entries."""
    entries = history["workloads"].get(workload) or []
    if not entries:
        return []
    latest = entries[-1]
    previous = entries[-2] if len(entries) > 1 else {}
    rows = []
    for section, key in (("end_to_end", "wall"), ("per_layer", "layers")):
        for metric in benchmark[section]:
            name = metric["name"]
            if name not in latest.get(key, {}):
                continue
            after = latest[key][name]
            before = previous.get(key, {}).get(name)
            move = (after - before) / before if before else None
            rows.append((name, metric["unit"], before, after, move))
    return rows
