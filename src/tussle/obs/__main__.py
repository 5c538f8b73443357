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
``perf [--check]``
    Inspect the committed perf-history ledger
    (``benchmarks/history.json``).  ``--ingest`` folds fresh
    ``benchmarks/results/bench_*.json`` records into the ledger;
    ``--check`` compares fresh results against ledger history and exits
    non-zero on a blocking wall-clock regression.
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
        "perf", help="inspect the perf-history ledger")
    perf_parser.add_argument(
        "--history", default="benchmarks/history.json", metavar="PATH",
        help="ledger file (default benchmarks/history.json)")
    perf_parser.add_argument(
        "--results", default="benchmarks/results", metavar="DIR",
        help="fresh bench_*.json directory (default benchmarks/results)")
    perf_parser.add_argument(
        "--ingest", action="store_true",
        help="fold fresh results into the ledger and rewrite it")
    perf_parser.add_argument(
        "--check", action="store_true",
        help="compare fresh results against history; exit non-zero on "
             "a blocking wall-clock regression")
    perf_parser.add_argument(
        "--threshold", type=float, default=None, metavar="FACTOR",
        help="regression factor over the historical best (default 3.0)")
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
    from ..errors import TussleError
    from . import perfdb

    threshold = (args.threshold if args.threshold is not None
                 else perfdb.DEFAULT_THRESHOLD)
    try:
        history = perfdb.load_history(args.history)
        if args.ingest or args.check:
            results = perfdb.load_results(args.results)
        if args.ingest:
            ingested = perfdb.ingest(history, results)
            perfdb.write_history(args.history, history)
            print(f"ingested {len(ingested)} benchmark(s) into "
                  f"{args.history}: {', '.join(ingested)}")
        if args.check:
            findings, ok = perfdb.check(history, results,
                                        threshold=threshold)
            for finding in findings:
                tag = "REGRESSION" if finding.blocking else "note"
                print(f"{tag}: {finding.bench_id}: {finding.message}")
            verdict = "ok" if ok else "REGRESSED"
            print(f"perf check vs {args.history}: {verdict} "
                  f"({len(results)} fresh result(s), "
                  f"threshold x{threshold:g})")
            return 0 if ok else 1
    except TussleError as exc:
        print(f"tussle.obs: {exc}", file=sys.stderr)
        return 2
    if not args.ingest and not args.check:
        benchmarks = history.get("benchmarks", {})
        if not benchmarks:
            print(f"{args.history}: empty ledger")
            return 0
        print(f"{args.history}: {len(benchmarks)} benchmark(s)")
        for bench_id in sorted(benchmarks):
            summary = perfdb.trend(history, bench_id)
            latest, best = summary["latest"], summary["best"]
            wall = ("no wall data" if latest is None
                    else f"latest {latest:.4f}s, best {best:.4f}s, "
                         f"{summary['direction']}")
            print(f"  {bench_id}: {summary['runs']} run(s), {wall}")
    return 0


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
