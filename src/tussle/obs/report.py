"""Trace analysis: turn a JSONL trace into per-subsystem breakdowns.

Drives ``python -m tussle.obs report <trace.jsonl>``.  The report has
two sections, both computed from logical (simulated) time:

* **subsystems** — per-scope span counts, total span time, and event
  counts: where sim time goes;
* **event rates** — per (scope, name) record counts and rates over the
  scope's observed time span.

This module deliberately avoids importing the experiment harness (the
instrumented subsystems import :mod:`tussle.obs` at module load, so
anything here that imported them back would be a cycle); it renders its
own plain-text tables.
"""

from __future__ import annotations

import json
from collections import Counter as _TallyCounter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError

__all__ = ["load_trace", "load_trace_tolerant", "TraceReport",
           "build_report", "SweepTelemetryReport", "build_sweep_report"]

#: Problem lines a text report prints before summarizing the rest.
PROBLEMS_SHOWN = 10


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record_problem(record: Any) -> Optional[str]:
    """Why this parsed line is not an analyzable trace record, or None.

    Records of other kinds (telemetry ``cell``/``wall``/``meta``/
    ``summary`` lines in a mixed-schema file) are *not* problems — the
    report counts them separately — but spans and events with missing
    or non-numeric timestamps are: downstream time math would crash or
    silently corrupt aggregates.
    """
    if not isinstance(record, dict):
        return "not a JSON object"
    if "kind" not in record:
        return "missing 'kind'"
    kind = record["kind"]
    if kind == "span":
        if not (_is_number(record.get("t0")) and _is_number(record.get("t1"))):
            return "span without numeric t0/t1"
    elif kind == "event":
        if not _is_number(record.get("t")):
            return "event without numeric t"
    return None


def load_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Parse one JSONL trace file into a list of record dicts.

    Strict: the first unreadable line raises :class:`ObservabilityError`
    with the file and line number.  For salvaging damaged or
    mixed-schema files, use :func:`load_trace_tolerant`.
    """
    records, problems = _load(path, strict=True)
    assert not problems  # strict mode raised instead
    return records


def load_trace_tolerant(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Parse a trace file, salvaging what parses.

    Returns ``(records, problems)``: every line that parses into an
    analyzable record, plus one human-readable problem per skipped line
    (truncated tail from a crashed run, interleaved non-JSON output,
    records from a different schema).  Never raises for file *content*;
    an unreadable file still raises.
    """
    return _load(path, strict=False)


def _load(path: Union[str, Path],
          strict: bool) -> Tuple[List[Dict[str, Any]], List[str]]:
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace {source}: {exc}") from exc
    records: List[Dict[str, Any]] = []
    problems: List[str] = []

    def problem(lineno: int, message: str) -> None:
        full = f"{source}:{lineno}: {message}"
        if strict:
            raise ObservabilityError(full)
        problems.append(full)

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problem(lineno, f"not valid JSON: {exc}")
            continue
        if not isinstance(record, dict) or "kind" not in record:
            problem(lineno, "not a trace record (missing 'kind')")
            continue
        reason = _record_problem(record)
        if reason is not None and not strict:
            # Strict mode historically accepted these; tolerant mode
            # quarantines them so aggregation stays crash-free.
            problems.append(f"{source}:{lineno}: {reason}")
            continue
        records.append(record)
    return records, problems


def _format_table(title: str, columns: Sequence[str],
                  rows: Sequence[Sequence[Any]]) -> str:
    body = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in body)) if body
        else len(columns[i])
        for i in range(len(columns))
    ]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class TraceReport:
    """Aggregated view over one trace's records.

    Construction never raises on malformed records: spans/events with
    broken timestamps are quarantined into ``skipped`` (with a reason
    appended to ``problems``) and records of other kinds — telemetry
    lines in a mixed-schema file, meta headers — are counted in
    ``other`` and excluded from time math, so the report is always at
    least partial.
    """

    def __init__(self, records: Sequence[Dict[str, Any]],
                 problems: Sequence[str] = ()):
        self.records = []
        self.skipped: List[Dict[str, Any]] = []
        self.other: List[Dict[str, Any]] = []
        self.problems = list(problems)
        for index, record in enumerate(records):
            reason = _record_problem(record)
            if reason is not None:
                self.skipped.append(record)
                self.problems.append(f"record {index}: {reason}")
            elif record.get("kind") in ("span", "event"):
                self.records.append(record)
            else:
                self.other.append(record)
        self.spans = [r for r in self.records if r.get("kind") == "span"]
        self.events = [r for r in self.records if r.get("kind") == "event"]

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def subsystem_breakdown(self) -> List[Dict[str, Any]]:
        """Per-scope span/event totals, sorted by total span time."""
        scopes: Dict[str, Dict[str, Any]] = {}
        for record in self.records:
            scope = scopes.setdefault(record.get("scope", "?"), {
                "spans": 0, "span_time": 0.0, "events": 0,
                "t_min": None, "t_max": None,
            })
            if record["kind"] == "span":
                scope["spans"] += 1
                scope["span_time"] += record["t1"] - record["t0"]
                lo, hi = record["t0"], record["t1"]
            else:
                scope["events"] += 1
                lo = hi = record["t"]
            if scope["t_min"] is None or lo < scope["t_min"]:
                scope["t_min"] = lo
            if scope["t_max"] is None or hi > scope["t_max"]:
                scope["t_max"] = hi
        rows = [
            {"scope": name, **data} for name, data in scopes.items()
        ]
        rows.sort(key=lambda r: (-r["span_time"], r["scope"]))
        return rows

    def event_rates(self) -> List[Dict[str, Any]]:
        """Per (scope, name) counts and rates over the scope's time span."""
        tally: _TallyCounter = _TallyCounter()
        for record in self.records:
            tally[(record.get("scope", "?"), record.get("name", "?"))] += 1
        spans = {row["scope"]: row for row in self.subsystem_breakdown()}
        rows = []
        for (scope, name), count in tally.items():
            info = spans.get(scope, {})
            t_min, t_max = info.get("t_min"), info.get("t_max")
            duration = (t_max - t_min) if (t_min is not None
                                           and t_max is not None) else 0.0
            rows.append({
                "scope": scope,
                "name": name,
                "count": count,
                "rate": count / duration if duration > 0 else 0.0,
            })
        rows.sort(key=lambda r: (-r["count"], r["scope"], r["name"]))
        return rows

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format(self) -> str:
        headline = (f"trace: {len(self.records)} records "
                    f"({len(self.spans)} spans, {len(self.events)} events)")
        if self.other:
            headline += f", {len(self.other)} other-schema records"
        if self.problems:
            headline += f", {len(self.problems)} skipped"
        sections = [
            headline,
            "",
            _format_table(
                "Per-subsystem breakdown (logical time)",
                ["scope", "spans", "span_time", "events", "t_min", "t_max"],
                [[r["scope"], r["spans"], r["span_time"], r["events"],
                  r["t_min"] if r["t_min"] is not None else "-",
                  r["t_max"] if r["t_max"] is not None else "-"]
                 for r in self.subsystem_breakdown()],
            ),
            "",
            _format_table(
                "Event rates (per scope/name)",
                ["scope", "name", "count", "rate"],
                [[r["scope"], r["name"], r["count"], r["rate"]]
                 for r in self.event_rates()],
            ),
        ]
        if self.problems:
            shown = self.problems[:PROBLEMS_SHOWN]
            sections += ["", f"Problems ({len(self.problems)}):"]
            sections += [f"  {line}" for line in shown]
            if len(self.problems) > PROBLEMS_SHOWN:
                sections.append(
                    f"  ... and {len(self.problems) - PROBLEMS_SHOWN} more")
        return "\n".join(sections)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records": len(self.records),
            "spans": len(self.spans),
            "events": len(self.events),
            "other": len(self.other),
            "skipped": len(self.skipped),
            "problems": list(self.problems),
            "subsystems": self.subsystem_breakdown(),
            "event_rates": self.event_rates(),
        }


def build_report(path: Union[str, Path],
                 strict: bool = True) -> TraceReport:
    """Load ``path`` and aggregate it into a :class:`TraceReport`.

    ``strict=False`` salvages damaged files: unparseable lines become
    entries in the report's ``problems`` instead of exceptions.
    """
    if strict:
        return TraceReport(load_trace(path))
    records, problems = load_trace_tolerant(path)
    return TraceReport(records, problems=problems)


class SweepTelemetryReport:
    """Aggregated view over a sweep telemetry stream (both channels).

    Built from a deterministic-channel file plus (when present) its
    :func:`~tussle.obs.telemetry.wall_path_for` sibling.  Deterministic
    facts — cell totals, cache-hit rate, outcome counts — come from the
    deterministic channel; utilization, stragglers, and retry storms
    come from the quarantined wall channel and are absent when it is.
    """

    def __init__(self, det_records: Sequence[Dict[str, Any]],
                 wall_records: Sequence[Dict[str, Any]] = (),
                 problems: Sequence[str] = ()):
        self.problems = list(problems)
        self.schema: Optional[int] = None
        self.det_counters: Dict[str, int] = {}
        self.wall_counters: Dict[str, int] = {}
        self.cells: List[Dict[str, Any]] = []
        for record in det_records:
            kind = record.get("kind")
            if kind == "meta":
                self.schema = record.get("schema")
            elif kind == "summary":
                self.det_counters = dict(record.get("counters", {}))
            elif kind == "cell":
                self.cells.append(record)
        self.wall_events: List[Dict[str, Any]] = []
        for record in wall_records:
            kind = record.get("kind")
            if kind == "summary":
                self.wall_counters = dict(record.get("counters", {}))
            elif kind == "wall":
                self.wall_events.append(record)
        from .telemetry import TELEMETRY_SCHEMA
        if self.schema is not None and self.schema != TELEMETRY_SCHEMA:
            self.problems.append(
                f"telemetry schema {self.schema} != supported "
                f"{TELEMETRY_SCHEMA}; report may be incomplete")

    # ------------------------------------------------------------------
    # Aggregations
    # ------------------------------------------------------------------
    def cache_hit_rate(self) -> Optional[float]:
        total = self.det_counters.get("cells_total", 0)
        if not total:
            return None
        return self.det_counters.get("cache_hits", 0) / total

    def worker_utilization(self) -> List[Dict[str, Any]]:
        """Per-worker cell counts and busy seconds from ``cell_finished``."""
        workers: Dict[str, Dict[str, Any]] = {}
        for event in self.wall_events:
            if event.get("event") != "cell_finished":
                continue
            name = str(event.get("worker", "?"))
            row = workers.setdefault(
                name, {"worker": name, "cells": 0, "busy_seconds": 0.0})
            row["cells"] += 1
            seconds = event.get("seconds")
            if _is_number(seconds):
                row["busy_seconds"] += seconds
        rows = sorted(workers.values(),
                      key=lambda r: (-r["busy_seconds"], r["worker"]))
        return rows

    def stragglers(self, top: int = 5) -> List[Dict[str, Any]]:
        """The slowest finished cells by wall seconds."""
        finished = [
            e for e in self.wall_events
            if e.get("event") == "cell_finished"
            and _is_number(e.get("seconds"))
        ]
        finished.sort(key=lambda e: -e["seconds"])
        return [{"experiment_id": e.get("experiment_id"),
                 "base_seed": e.get("base_seed"),
                 "worker": e.get("worker"),
                 "seconds": e["seconds"],
                 "status": e.get("status")} for e in finished[:top]]

    def retry_storms(self) -> List[Dict[str, Any]]:
        """Cells retried more than once — the chaos hot spots."""
        tally: Dict[Tuple[Any, Any], Dict[str, Any]] = {}
        for event in self.wall_events:
            if event.get("event") != "cell_retried":
                continue
            key = (event.get("experiment_id"), event.get("base_seed"))
            row = tally.setdefault(key, {
                "experiment_id": key[0], "base_seed": key[1],
                "retries": 0, "reasons": []})
            row["retries"] += 1
            reason = event.get("reason")
            if reason and reason not in row["reasons"]:
                row["reasons"].append(reason)
        rows = [r for r in tally.values() if r["retries"] > 1]
        rows.sort(key=lambda r: (-r["retries"], str(r["experiment_id"]),
                                 str(r["base_seed"])))
        return rows

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format(self, top: int = 5) -> str:
        det = self.det_counters
        lines = [
            f"sweep telemetry (schema {self.schema}): "
            f"{det.get('cells_total', len(self.cells))} cells, "
            f"{det.get('cache_hits', 0)} cache hits, "
            f"{det.get('completed_error', 0) + det.get('completed_failed', 0)}"
            " failures",
        ]
        rate = self.cache_hit_rate()
        if rate is not None:
            lines.append(f"cache hit rate: {rate:.1%}")
        if self.wall_counters:
            lines.append(
                f"wall: {self.wall_counters.get('attempts', 0)} attempts, "
                f"{self.wall_counters.get('retries', 0)} retries, "
                f"{self.wall_counters.get('worker_deaths', 0)} worker deaths, "
                f"{self.wall_counters.get('timeouts', 0)} timeouts")
        utilization = self.worker_utilization()
        if utilization:
            lines += ["", _format_table(
                "Per-worker utilization (wall)",
                ["worker", "cells", "busy_seconds"],
                [[r["worker"], r["cells"], r["busy_seconds"]]
                 for r in utilization],
            )]
        stragglers = self.stragglers(top)
        if stragglers:
            lines += ["", _format_table(
                f"Top-{len(stragglers)} stragglers (wall)",
                ["experiment", "seed", "worker", "seconds", "status"],
                [[r["experiment_id"], r["base_seed"], r["worker"],
                  r["seconds"], r["status"]] for r in stragglers],
            )]
        storms = self.retry_storms()
        if storms:
            lines += ["", _format_table(
                "Retry storms (cells retried more than once)",
                ["experiment", "seed", "retries", "reasons"],
                [[r["experiment_id"], r["base_seed"], r["retries"],
                  "; ".join(r["reasons"])] for r in storms],
            )]
        if self.problems:
            lines += ["", f"Problems ({len(self.problems)}):"]
            lines += [f"  {p}" for p in self.problems[:10]]
        return "\n".join(lines)

    def to_dict(self, top: int = 5) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "det_counters": dict(self.det_counters),
            "wall_counters": dict(self.wall_counters),
            "cache_hit_rate": self.cache_hit_rate(),
            "worker_utilization": self.worker_utilization(),
            "stragglers": self.stragglers(top),
            "retry_storms": self.retry_storms(),
            "problems": list(self.problems),
        }


def build_sweep_report(path: Union[str, Path]) -> SweepTelemetryReport:
    """Load a telemetry file (plus wall sibling, if any) into a report.

    ``path`` is the deterministic-channel file written by
    ``python -m tussle sweep --telemetry``.  Loading is tolerant: a
    truncated or damaged file yields a partial report with problems
    listed, never a traceback.
    """
    from .telemetry import wall_path_for
    det_records, problems = load_trace_tolerant(path)
    wall_records: List[Dict[str, Any]] = []
    wall_path = wall_path_for(path)
    if wall_path.exists():
        wall_records, wall_problems = load_trace_tolerant(wall_path)
        problems = problems + wall_problems
    return SweepTelemetryReport(det_records, wall_records,
                                problems=problems)
