"""Command-line interface: ``python -m tussle``.

Subcommands
-----------
``list``
    Show every experiment with its title and paper claim.
``run E01 X03 ...``
    Run the named experiments (default: all) and print their tables and
    shape-check verdicts; exits non-zero if any shape fails.

    ``--trace PATH`` records a deterministic JSONL trace of the run
    (sim-time-stamped spans and events from every instrumented
    subsystem); inspect it with ``python -m tussle.obs report PATH``.

    ``--json`` replaces the plain-text output with a single JSON
    document: ``{"results": [...], "failed": [...]}`` where each result
    carries its id, title, paper claim, tables (columns + rows), shape
    checks and a per-experiment metrics snapshot. The exit code is
    unchanged (non-zero when any shape check fails), so ``--json`` is
    safe to use in CI pipelines.
``summary``
    Run everything and print only the one-line verdicts.
``sweep E01 X03 ...``
    Run a multi-seed / parameter-grid matrix through the parallel sweep
    engine (default: all experiments): ``--seeds N`` sweeps base seeds
    ``0..N-1`` (each cell runs at a seed *derived* from its identity, so
    no two cells share RNG state), ``--grid key=v1,v2`` adds a parameter
    axis (repeatable; values are swept as a cartesian product),
    ``--jobs N`` fans cells out over N supervised worker processes, and
    ``--cache-dir`` makes re-runs incremental (completed cells are keyed
    by experiment, params, seed, and a code fingerprint, so any source
    change invalidates them).  ``--json`` emits the aggregated
    robustness document; the bytes are identical whatever ``--jobs`` is.
    Exits non-zero unless every shape check holds on every seed.

    Every sweep runs on the crash-safe executor: a cell whose worker
    dies or outlives ``--timeout`` seconds (default 30) is retried up to
    ``--retries`` times (default 3) on a fresh worker, then reported as
    failed.  ``--chaos-workers FRACTION`` (with ``--chaos-seed``)
    deliberately crashes or hangs that fraction of first attempts to
    drill the recovery path.

    ``--telemetry PATH`` records the sweep's two-channel telemetry
    stream: cell lifecycle facts on a deterministic channel at PATH
    (byte-identical for any ``--jobs`` or chaos plan) and
    retries/latencies/worker lifecycle on the quarantined
    ``.wall.jsonl`` sibling; summarize with ``python -m tussle.obs
    sweep-report PATH``.  ``--progress`` streams running per-claim
    verdicts to stderr as cells land.  A one-line sweep summary (cells,
    cache hits, retries, failures, wall time) always prints at the end.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence

from .experiments import ALL_EXPERIMENTS
from .obs import Metrics, Tracer, observe

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tussle",
        description=("Executable reproduction of 'Tussle in Cyberspace' "
                     "(Clark et al., 2002): run the paper-claim experiments."),
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run experiments")
    run_parser.add_argument(
        "experiments", nargs="*", metavar="ID",
        help="experiment ids (e.g. E01 X03); default: all",
    )
    run_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a deterministic JSONL trace of the run to PATH",
    )
    run_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit results as one JSON document instead of text",
    )

    subparsers.add_parser("summary", help="run everything, verdicts only")

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a multi-seed/parameter matrix in parallel")
    sweep_parser.add_argument(
        "experiments", nargs="*", metavar="ID",
        help="experiment ids (e.g. E01 X03); default: all",
    )
    sweep_parser.add_argument(
        "--seeds", type=_int_at_least(1), default=5, metavar="N",
        help="sweep base seeds 0..N-1 (default 5)",
    )
    sweep_parser.add_argument(
        "--jobs", type=_int_at_least(1), default=1, metavar="N",
        help="worker processes, each reused across cells and replaced "
             "if it dies or hangs (default 1)",
    )
    sweep_parser.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2",
        help="parameter axis passed to every experiment as a keyword "
             "argument; repeat for a cartesian product",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="cache completed cells under PATH for incremental re-runs",
    )
    sweep_parser.add_argument(
        "--timeout", type=_positive_seconds, default=30.0, metavar="SECONDS",
        help="per-cell wall-clock timeout; a cell still running after it "
             "is killed and retried (default 30)",
    )
    sweep_parser.add_argument(
        "--retries", type=_int_at_least(0), default=3, metavar="N",
        help="retries per cell on worker death or timeout (default 3)",
    )
    sweep_parser.add_argument(
        "--chaos-workers", type=float, default=0.0, metavar="FRACTION",
        help="sabotage this fraction of first attempts (crash or hang) "
             "to exercise recovery (default 0)",
    )
    sweep_parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="SEED",
        help="seed for the deterministic worker-chaos plan (default 0)",
    )
    sweep_parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write the sweep telemetry stream: deterministic channel "
             "to PATH (byte-identical whatever --jobs or chaos), "
             "wall-clock channel to the .wall.jsonl sibling; inspect "
             "with python -m tussle.obs sweep-report PATH",
    )
    sweep_parser.add_argument(
        "--progress", action="store_true",
        help="stream running per-claim verdicts to stderr as cells land",
    )
    sweep_parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the aggregated robustness document as JSON",
    )
    return parser


def _int_at_least(minimum: int):
    """An argparse type: an int no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its errors
    return parse


def _positive_seconds(text: str) -> float:
    """An argparse type: a finite number of seconds above zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _select(ids: Sequence[str]) -> List[str]:
    if not ids:
        return sorted(ALL_EXPERIMENTS)
    selected = []
    for raw in ids:
        identifier = raw.upper()
        if identifier not in ALL_EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {raw!r}; "
                f"choose from {', '.join(sorted(ALL_EXPERIMENTS))}"
            )
        selected.append(identifier)
    return selected


def _command_list() -> int:
    for identifier in sorted(ALL_EXPERIMENTS):
        result_fn = ALL_EXPERIMENTS[identifier]
        doc = (result_fn.__module__ or "").rsplit(".", 1)[-1]
        print(f"{identifier}  ({doc})")
    print(f"\n{len(ALL_EXPERIMENTS)} experiments; "
          f"run them with: python -m tussle run [ID ...]")
    return 0


def _command_run(ids: Sequence[str], trace_path: Optional[str] = None,
                 as_json: bool = False) -> int:
    tracer = Tracer() if trace_path else None
    failed = []
    results = []
    for position, identifier in enumerate(_select(ids)):
        metrics = Metrics()
        with observe(tracer=tracer, metrics=metrics):
            if tracer is not None:
                # Logical time for the run-level span is the experiment's
                # position in the selection — deterministic, never wall clock.
                span = tracer.begin("experiments", identifier, float(position))
            result = ALL_EXPERIMENTS[identifier]()
            if tracer is not None:
                span.end(float(position + 1), shape_holds=result.shape_holds)
        result.metrics = metrics.snapshot()
        results.append(result)
        if not as_json:
            print(result.format())
            print()
        if not result.shape_holds:
            failed.append(identifier)
    if tracer is not None:
        tracer.write_jsonl(trace_path)
        if not as_json:
            print(f"trace written to {trace_path} ({len(tracer)} records)")
    if as_json:
        print(json.dumps(
            {"results": [r.to_dict() for r in results], "failed": failed},
            indent=2, sort_keys=True,
        ))
    elif failed:
        print(f"SHAPE FAILURES: {', '.join(failed)}")
    return 1 if failed else 0


def _parse_grid_value(text: str):
    """CLI grid literal: int, then float, then bool, else string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_grid(entries: Sequence[str]) -> dict:
    grid: dict = {}
    for entry in entries:
        key, separator, values = entry.partition("=")
        if not separator or not key or not values:
            raise SystemExit(
                f"bad --grid entry {entry!r}; expected KEY=V1,V2,...")
        grid[key] = [_parse_grid_value(v) for v in values.split(",")]
    return grid


def _command_sweep(ids: Sequence[str], seeds: int, jobs: int,
                   grid_entries: Sequence[str],
                   cache_dir: Optional[str] = None,
                   timeout: float = 30.0,
                   retries: int = 3,
                   chaos_workers: float = 0.0,
                   chaos_seed: int = 0,
                   telemetry_path: Optional[str] = None,
                   progress: bool = False,
                   as_json: bool = False) -> int:
    from .obs import Profiler, SweepTelemetry
    from .resil import WorkerChaos
    from .sweep import (ResilientExecutor, ResultCache, StreamingAggregator,
                        SweepSpec, run_sweep)
    from .sweep.aggregate import aggregate

    spec = SweepSpec(
        experiment_ids=_select(ids),
        seeds=list(range(seeds)),
        grid=_parse_grid(grid_entries),
    )
    chaos = (WorkerChaos(seed=chaos_seed, fraction=chaos_workers)
             if chaos_workers else None)
    executor = ResilientExecutor(jobs=jobs, timeout=timeout,
                                 retries=retries, chaos=chaos)
    cache = ResultCache(cache_dir) if cache_dir else None
    metrics = Metrics()
    profiler = Profiler()
    telemetry = SweepTelemetry()
    telemetry.wall_event("sweep_started", jobs=jobs)
    streaming = StreamingAggregator() if progress else None
    total_cells = len(spec.cells())

    def on_cell(payload: dict) -> None:
        if streaming is None:
            return
        group = streaming.fold(payload)
        print(f"[{streaming.cells_seen}/{total_cells}] "
              f"{payload['experiment_id']} seed={payload['base_seed']} "
              f"{payload['status']} | {group.verdict()}",
              file=sys.stderr, flush=True)

    with observe(metrics=metrics, profiler=profiler):
        report = run_sweep(spec, executor=executor, cache=cache,
                           telemetry=telemetry, on_cell=on_cell)
    wall_seconds = telemetry.elapsed()
    telemetry.wall_event("sweep_finished",
                         seconds=round(wall_seconds, 6))
    aggregated = aggregate(report.cells)
    if telemetry_path:
        det_path, wall_path = telemetry.write(telemetry_path)
        print(f"telemetry written to {det_path} (wall: {wall_path})",
              file=sys.stderr)
    summary = telemetry.summary_line(wall_seconds)

    if as_json:
        # Deterministic channel only: byte-identical whatever --jobs is.
        print(json.dumps(
            {"stats": report.stats, "aggregate": aggregated},
            indent=2, sort_keys=True,
        ))
    else:
        for verdict in aggregated["verdicts"]:
            print(verdict)
        for cell in report.failed:
            error = cell["error"] or {}
            detail = (", ".join(error.get("reasons", []))
                      if cell["status"] == "failed"
                      else error.get("message"))
            print(f"FAILED {cell['experiment_id']} seed={cell['base_seed']} "
                  f"params={cell['params']}: {error.get('type')}: {detail}")
        stats = report.stats
        print(f"{stats['cells_total']} cells: "
              f"{stats['cells_cached']} cached, "
              f"{stats['cells_dispatched']} dispatched, "
              f"{stats['cells_failed']} failed")
        recovery = report.recovery
        print(f"recovery: {recovery['retries']} retries "
              f"({recovery['worker_deaths']} worker deaths, "
              f"{recovery['timeouts']} timeouts), "
              f"{recovery['recovered_cells']} cells recovered, "
              f"{recovery['failed_cells']} cells abandoned")
        utilization = profiler.snapshot()
        workers = [k for k in utilization if k.startswith("worker.")]
        if workers:
            busy = sum(utilization[k]["total_seconds"] for k in workers)
            print(f"worker utilization ({len(workers)} workers, "
                  f"{busy:.2f}s busy):")
            for key in workers:
                stat = utilization[key]
                print(f"  {key[len('worker.'):]}: {stat['calls']} cells, "
                      f"{stat['total_seconds']:.2f}s")
    # The one-line summary always lands somewhere visible: stdout in
    # text mode, stderr under --json so the JSON document stays clean.
    print(summary, file=sys.stderr if as_json else sys.stdout)
    return 0 if (report.ok and aggregated["robust"]) else 1


def _command_summary() -> int:
    exit_code = 0
    for identifier in sorted(ALL_EXPERIMENTS):
        result = ALL_EXPERIMENTS[identifier]()
        verdict = "HOLDS" if result.shape_holds else "FAILS"
        if not result.shape_holds:
            exit_code = 1
        print(f"{identifier}: {verdict}  {result.title}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "list":
        return _command_list()
    if arguments.command == "run":
        return _command_run(arguments.experiments, trace_path=arguments.trace,
                            as_json=arguments.as_json)
    if arguments.command == "summary":
        return _command_summary()
    if arguments.command == "sweep":
        return _command_sweep(arguments.experiments, seeds=arguments.seeds,
                              jobs=arguments.jobs, grid_entries=arguments.grid,
                              cache_dir=arguments.cache_dir,
                              timeout=arguments.timeout,
                              retries=arguments.retries,
                              chaos_workers=arguments.chaos_workers,
                              chaos_seed=arguments.chaos_seed,
                              telemetry_path=arguments.telemetry,
                              progress=arguments.progress,
                              as_json=arguments.as_json)
    parser.print_help()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
