"""One benchmark run in a fresh interpreter; started by ``run.py``.

Protocol on stdout: the line ``ready`` once ``tussle`` is imported and
the inputs are built (``run.py`` times set-up up to that line).  With
``--probe`` it stops there.  Untraced, it then makes an untimed warm-up
pass and serves ``run.py``'s closed loop: for each ``pass`` line on
stdin it runs one gated pass, for each ``calibrate`` line it times the
host-speed kernel (``speed.py``), and each prints one JSON line; when
stdin closes it prints the run's report as one JSON line and exits.
Traced, it runs the whole traced run unprompted and prints its report
as the last line.  Exit code 3 means the layer-coverage check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tussle  # noqa: E402,F401  (set-up cost is part of the measurement)

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TRACE_DIR = os.path.join(ROOT, ".perfbench")
#: Untraced full-size passes before the traced ones; ``trace.overhead_s``
#: is taken against their median, so one slow pass does not set it.
UNTRACED_PASSES = 3


def _warm_up(workload: str) -> None:
    """Untimed smoke-size pass: lazy imports and first-call costs."""
    workloads.run_pass(workload, "smoke", 0)


def timed(args, seed, pins) -> dict:
    """Serve ``pass`` and ``calibrate`` commands until stdin closes; the
    caller paces the loop."""
    _warm_up(args.workload)
    speed.calibrate()
    for command in sys.stdin:
        if command.strip() == "calibrate":
            print(json.dumps({"calibration": speed.calibrate()}), flush=True)
            continue
        if command.strip() != "pass":
            break
        output, attempted, failed = workloads.checked_pass(
            args.workload, args.size, seed, pins)
        print(json.dumps({
            "wall": None if output is None else output.wall,
            "items": None if output is None else output.items,
            "attempted": attempted, "failed": failed}), flush=True)
    # Peak RSS of this process plus its largest sweep worker (KiB on Linux).
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {"peak_rss_mb": rss_kib / 1024.0}


def traced(args, all_pins) -> dict:
    """Untraced passes then a traced pass of this workload; traced passes
    of the rest.

    Every per-layer metric is read from the traced pass of the workload
    it belongs to, so each traced run reports the full table.
    """
    size = workloads.SIZES[args.size]
    registry = size["registry"]
    _warm_up(args.workload)
    seed, pins = workloads.resolve(all_pins, args.size, args.workload, args.seed)
    attempted = failed = 0
    untraced_walls = []
    for _ in range(UNTRACED_PASSES):
        untraced, tried, bad = workloads.checked_pass(
            args.workload, args.size, seed, pins)
        attempted, failed = attempted + tried, failed + bad
        if untraced is not None:
            untraced_walls.append(untraced.wall)

    recorders, traced_wall = {}, None
    for workload in layers.WORKLOADS:
        if workload != args.workload:
            _warm_up(workload)
        seed, pins = workloads.resolve(all_pins, args.size, workload, args.seed)
        recorder = layers.Recorder()
        with layers.install(recorder):
            output, tried, bad = workloads.checked_pass(
                workload, args.size, seed, pins)
            attempted, failed = attempted + tried, failed + bad
            if workload == layers.SWEEP:
                from tussle.experiments import ALL_EXPERIMENTS
                for eid in registry:
                    with recorder.span(f"exp.{eid}"):
                        result = ALL_EXPERIMENTS[eid]()
                    attempted += 1
                    failed += not result.shape_holds
        recorders[workload] = recorder
        if output is not None and workload == args.workload:
            traced_wall = output.wall

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for workload, recorder in recorders.items():
            for line in recorder.jsonl(workload):
                handle.write(line + "\n")

    values = layers.span_metrics(recorders, registry)
    # A retried sweep cell counts as a failed operation; only the traced
    # pass can see retries, which the --json document does not carry.
    failed += int(values["sweep.retries"])
    if untraced_walls and traced_wall is not None:
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = (traced_wall
                                      - statistics.median(untraced_walls))
    return {"per_layer": values, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=layers.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    importlib.import_module(workloads.ENTRY_MODULES[args.workload])
    all_pins = workloads.load_pins()
    seed, pins = workloads.resolve(all_pins, args.size, args.workload,
                                   args.seed)
    print("ready", flush=True)
    if args.probe:
        return 0
    try:
        report = (traced(args, all_pins) if args.trace
                  else timed(args, seed, pins))
    except layers.CoverageError as exc:
        print(f"layer coverage check failed: {exc}", file=sys.stderr)
        return 3
    report["seed"] = seed
    print(json.dumps(report, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
