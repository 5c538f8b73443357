"""Command-line interface: ``python -m tussle.obs``.

Subcommands
-----------
``report <trace.jsonl>``
    Aggregate a JSONL trace (written by ``python -m tussle run --trace``
    or ``Tracer.write_jsonl``) into a per-subsystem time breakdown and
    an event-rate table.  ``--format json`` emits the same aggregates
    machine-readably;
    ``--tolerant`` salvages damaged/truncated files into a partial
    report with problems listed instead of a hard error.
``sweep-report <telemetry.jsonl>``
    Summarize a sweep telemetry stream (deterministic channel plus its
    ``.wall.jsonl`` sibling when present): totals, cache-hit rate,
    per-worker utilization, stragglers, and retry storms.
``diff <a.jsonl> <b.jsonl>``
    Compare two deterministic JSONL streams (traces or telemetry) and
    report the first divergent line with aligned context and per-field
    changes.  Exits 0 when identical, 1 on divergence.
``perf [--ingest WORKLOAD RESULT [RESULT ...]] [--check]``
    Inspect the committed perf ledger (``benchmarks/history.json``)
    against the benchmark contract (``BENCHMARK.json`` in the working
    directory).  With no flag it prints every metric's previous value,
    latest value and relative move per workload.  ``--ingest`` appends
    one entry built from perfbench result files (the last stdout line of
    ``perfbench/run.py`` at ``--trace 0`` and ``--trace 1``); ``--check``
    exits 1 when a workload has no entry, its latest entry is incomplete
    or failed an operation, or an end-to-end metric moved the wrong way
    by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from ..errors import ObservabilityError
from .diff import diff_files, format_divergence
from .report import build_report, build_sweep_report

__all__ = ["main", "build_parser"]

#: The benchmark contract, read from the working directory (the repo
#: root), as ``--history``'s default path is.
BENCHMARK_PATH = "BENCHMARK.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tussle.obs",
        description="Analyze tussle observability traces.",
    )
    subparsers = parser.add_subparsers(dest="command")

    report_parser = subparsers.add_parser(
        "report", help="summarize a JSONL trace file")
    report_parser.add_argument("trace", metavar="TRACE.JSONL",
                               help="trace file to analyze")
    report_parser.add_argument("--format", choices=("text", "json"),
                               default="text")
    report_parser.add_argument(
        "--tolerant", action="store_true",
        help="salvage damaged/mixed-schema files into a partial report")

    sweep_parser = subparsers.add_parser(
        "sweep-report", help="summarize a sweep telemetry stream")
    sweep_parser.add_argument(
        "telemetry", metavar="TELEMETRY.JSONL",
        help="deterministic-channel file from tussle sweep --telemetry")
    sweep_parser.add_argument("--top", type=int, default=5,
                              help="stragglers to list (default 5)")
    sweep_parser.add_argument("--format", choices=("text", "json"),
                              default="text")

    diff_parser = subparsers.add_parser(
        "diff", help="find the first divergence between two JSONL streams")
    diff_parser.add_argument("a", metavar="A.JSONL")
    diff_parser.add_argument("b", metavar="B.JSONL")
    diff_parser.add_argument("--context", type=int, default=3,
                             help="aligned lines shown before the "
                                  "divergence (default 3)")
    diff_parser.add_argument("--format", choices=("text", "json"),
                             default="text")

    perf_parser = subparsers.add_parser(
        "perf", help="inspect and gate the perf ledger")
    perf_parser.add_argument(
        "--history", default="benchmarks/history.json", metavar="PATH",
        help="ledger file (default benchmarks/history.json)")
    perf_parser.add_argument(
        "--ingest", nargs="+", metavar=("WORKLOAD", "RESULT"),
        help="append one entry built from perfbench result files")
    perf_parser.add_argument(
        "--check", action="store_true",
        help="gate each workload's latest entry against the one before "
             "it; exit 1 on a blocking finding")
    return parser


def _command_report(args: argparse.Namespace) -> int:
    try:
        report = build_report(args.trace, strict=not args.tolerant)
    except ObservabilityError as exc:
        print(f"tussle.obs: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0


def _command_sweep_report(args: argparse.Namespace) -> int:
    try:
        report = build_sweep_report(args.telemetry)
    except ObservabilityError as exc:
        print(f"tussle.obs: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(args.top), indent=2, sort_keys=True))
    else:
        print(report.format(args.top))
    return 0


def _command_diff(args: argparse.Namespace) -> int:
    try:
        divergence = diff_files(args.a, args.b, context=args.context)
    except ObservabilityError as exc:
        print(f"tussle.obs: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(
            divergence.to_dict() if divergence is not None else None,
            indent=2, sort_keys=True))
    elif divergence is None:
        print(f"identical: {args.a} == {args.b}")
    else:
        print(format_divergence(divergence, args.a, args.b))
    return 0 if divergence is None else 1


def _command_perf(args: argparse.Namespace) -> int:
    from . import perfdb

    try:
        benchmark = perfdb.load_benchmark(BENCHMARK_PATH)
        history = perfdb.load_history(args.history)
        if args.ingest:
            workload, paths = args.ingest[0], args.ingest[1:]
            if not paths:
                raise ObservabilityError(
                    "--ingest needs a workload and at least one result file")
            entry = perfdb.ingest(history, benchmark, workload,
                                  [perfdb.read_result(p) for p in paths])
            perfdb.write_history(args.history, history)
            print(f"ingested {workload} run {entry['run']} into "
                  f"{args.history}")
    except ObservabilityError as exc:
        print(f"tussle.obs: {exc}", file=sys.stderr)
        return 2
    if args.check:
        findings = perfdb.check(history, benchmark)
        for finding in findings:
            print(f"{finding.kind.upper()}: {finding.workload}: "
                  f"{finding.message}")
        print(f"perf check vs {args.history}: "
              f"{'REGRESSED' if findings else 'ok'} "
              f"({len(benchmark['workloads'])} workload(s))")
        return 1 if findings else 0
    if not args.ingest:
        for workload in benchmark["workloads"]:
            entries = history["workloads"].get(workload["name"]) or []
            runs = [entry["run"] for entry in entries[-2:]]
            print(f"{workload['name']}: "
                  + (" -> ".join(f"run {run}" for run in runs)
                     if runs else "no entry"))
            for name, unit, before, after, move in perfdb.moves(
                    history, benchmark, workload["name"]):
                change = "" if move is None else f"{move:+.1%}"
                print(f"  {name:<36} {_number(before):>12} "
                      f"{_number(after):>12} {change:>8} {unit}")
    return 0


def _number(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return _command_report(args)
    if args.command == "sweep-report":
        return _command_sweep_report(args)
    if args.command == "diff":
        return _command_diff(args)
    if args.command == "perf":
        return _command_perf(args)
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
