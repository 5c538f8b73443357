"""Benchmark entry point: one workload, one run, every metric with its unit.

    python3 perfbench/run.py --workload peering-war --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of timed,
untraced passes, which this process paces in a closed loop:
``setup_s`` (fresh interpreter to inputs built; median of several fresh
starts spread between the passes), ``wall_s`` (median pass),
``items_per_s``, ``peak_rss_mb``.  Set-ups and passes are rescaled to
the reference machine's speed by a host-speed kernel timed on either
side of each (``speed.py``).  With ``--trace 1`` it reports every per-layer metric
from a traced run (see ``layers.py``).  ``fail_frac`` is
``failed / attempted``: the output-correctness gate counts a failed shape
check, a failed sweep cell or an output digest that differs from its
pin.  The last stdout line is one JSON object; earlier lines are the
same numbers for people.  ``--smoke`` runs the small sizes the harness's
own tests use.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: Fresh-interpreter set-ups timed per run, besides the measured worker's
#: own.  They run between timed passes, one per ``seconds / SETUP_PROBES``
#: of pass time, so they sample the same stretch of the run as the passes
#: rather than only its start; the remainder run after the last pass.
SETUP_PROBES = 5
IMPORT_PROBES = 3
#: Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "peak_rss_mb": "MiB"}


class RunFailed(RuntimeError):
    pass


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _stop(process: subprocess.Popen) -> None:
    """Kill whatever is left of the worker's process group, then reap it."""
    _kill_group(process)
    process.wait()


def _readline(process: subprocess.Popen, deadline: float) -> str:
    """The worker's next stdout line, or ``""`` if it ended first.

    A worker still silent at the deadline is killed, which ends the
    blocking read.
    """
    watchdog = threading.Timer(max(0.0, deadline - time.perf_counter()),
                               _kill_group, [process])
    watchdog.start()
    try:
        return process.stdout.readline()
    finally:
        watchdog.cancel()


def _start(argv, deadline: float):
    """Start the worker; return (process, seconds until its ``ready`` line)."""
    started = time.perf_counter()
    process = subprocess.Popen([sys.executable, WORKER, *argv], cwd=ROOT,
                               stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    line = _readline(process, deadline)
    ready = time.perf_counter() - started
    if line.strip() != "ready" or time.perf_counter() > deadline:
        _stop(process)
        raise RunFailed(f"worker did not reach set-up ({line.strip()!r})")
    return process, ready


def _probe(argv, deadline: float) -> float:
    """Seconds one fresh worker takes from start to ``ready``."""
    process, ready = _start(argv + ["--probe"], deadline)
    _finish(process, deadline)
    return ready


def _ask(process: subprocess.Popen, command: str, deadline: float) -> dict:
    """Send the worker one command (``pass`` or ``calibrate``); return
    its report line."""
    try:
        process.stdin.write(command + "\n")
        process.stdin.flush()
    except OSError:
        raise RunFailed(f"worker ended before a {command}") from None
    line = _readline(process, deadline)
    if not line or time.perf_counter() > deadline:
        raise RunFailed(f"worker ended or ran past the deadline in a {command}")
    return json.loads(line)


def _calibrate(process: subprocess.Popen, deadline: float) -> float:
    return _ask(process, "calibrate", deadline)["calibration"]


def _rescale(seconds: float, kernel: float) -> float:
    """``seconds`` at the reference machine's speed, from the host-speed
    kernel's time measured next to it."""
    return seconds * speed.REFERENCE_S / kernel


def _finish(process: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunFailed("worker ran past the deadline") from None
    finally:
        _stop(process)
    if process.returncode != 0:
        raise RunFailed(f"worker exited with code {process.returncode}")
    return out


def _import_probe(argv, deadline: float) -> str:
    """``-X importtime`` report of one fresh set-up (stderr)."""
    try:
        probe = subprocess.run(
            [sys.executable, "-X", "importtime", WORKER, *argv], cwd=ROOT,
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RunFailed("import probe ran past the deadline") from None
    if probe.returncode != 0:
        raise RunFailed(f"import probe exited with code {probe.returncode}")
    return probe.stderr


def _import_times(text: str):
    """(``import tussle`` cumulative, sum of scipy modules' self) seconds."""
    tussle_us, scipy_us = None, 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the column header
        module = name.strip()
        if module == "tussle":
            tussle_us = int(cumulative)
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += int(own)
    if tussle_us is None:
        raise RunFailed("-X importtime did not report the tussle import")
    return tussle_us / 1e6, scipy_us / 1e6


def _timed(base, seconds: float, deadline: float):
    """Closed loop of timed passes, with set-up probes between them.

    Returns (worker report, pass walls, set-up seconds, calibrations),
    walls and set-ups as measured and rescaled alike: each pair
    (measured, rescaled).  Passes run while another one is expected to
    end less than half a pass past ``seconds`` of pass time, so a run of
    long passes does not overshoot by a whole pass.  Probe ``k`` runs
    once ``k * seconds / SETUP_PROBES`` of pass time have gone by, and
    any left when the passes stop run then.  The host-speed kernel runs
    after every pass and every probe, so each is rescaled by the mean of
    the kernel times on either side of it.
    """
    process, ready = _start(base, deadline)
    kernel = _calibrate(process, deadline)
    calibrations = [kernel]
    walls, setups = [], [(ready, _rescale(ready, kernel))]
    attempted = failed = items = 0

    def probe():
        nonlocal kernel
        ready = _probe(base, deadline)
        after = _calibrate(process, deadline)
        calibrations.append(after)
        setups.append((ready, _rescale(ready, (kernel + after) / 2)))
        kernel = after

    try:
        paced = 0.0
        while not walls or (paced + statistics.median(w for w, _ in walls) / 2
                            < seconds):
            started = time.perf_counter()
            done = _ask(process, "pass", deadline)
            paced += time.perf_counter() - started
            attempted += done["attempted"]
            failed += done["failed"]
            if done["wall"] is None:
                break
            after = _calibrate(process, deadline)
            calibrations.append(after)
            walls.append((done["wall"],
                          _rescale(done["wall"], (kernel + after) / 2)))
            kernel = after
            items = done["items"]
            while (len(setups) <= SETUP_PROBES
                   and paced >= len(setups) * seconds / SETUP_PROBES):
                probe()
        while walls and len(setups) <= SETUP_PROBES:
            probe()
        out = _finish(process, deadline)  # closing stdin ends the worker
    finally:
        _stop(process)
    if not walls:
        raise RunFailed("no timed pass completed")
    report = json.loads(out.strip().splitlines()[-1])
    report.update(items=items, attempted=attempted, failed=failed)
    return report, walls, setups, calibrations


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace),
            "--size", "smoke" if args.smoke else "full"]
    registry = workloads.SIZES["smoke" if args.smoke else "full"]["registry"]

    if args.trace:
        probes = [_import_times(_import_probe(base + ["--probe"], deadline))
                  for _ in range(IMPORT_PROBES)]
        process, _ = _start(base, deadline)
        out = _finish(process, deadline)
        report = json.loads(out.strip().splitlines()[-1])
        values = dict(report["per_layer"])
        values["import.tussle_s"] = statistics.median(p[0] for p in probes)
        values["import.scipy_s"] = statistics.median(p[1] for p in probes)
        layers.check_coverage(values, registry)
        units = layers.metric_units(registry)
    else:
        report, walls, setups, calibrations = _timed(base, args.seconds,
                                                     deadline)
        wall = statistics.median(rescaled for _, rescaled in walls)
        values = {"setup_s": statistics.median(s for _, s in setups),
                  "wall_s": wall, "items_per_s": report["items"] / wall,
                  "peak_rss_mb": report["peak_rss_mb"]}
        units = END_TO_END_UNITS
        print(f"passes: {len(walls)}, walls (s, measured/rescaled): "
              + ", ".join(f"{w:.4f}/{r:.4f}" for w, r in walls))
        print("set-ups (s, measured/rescaled): "
              + ", ".join(f"{s:.4f}/{r:.4f}" for s, r in setups))
        print(f"host-speed kernel (s; {speed.REFERENCE_S} on the reference "
              "machine): " + ", ".join(f"{c:.4f}" for c in calibrations))

    attempted, failed = report["attempted"], report["failed"]
    print(f"workload {args.workload}, workload seed {report['seed']}")
    for name in sorted(values):
        print(f"  {name} = {values[name]!r} {units[name]}")
    print(f"  fail_frac = {failed / attempted!r} ratio "
          f"({failed} of {attempted} operations failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in sorted(values)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=layers.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for the harness's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tussle", "__init__.py")):
        print("perfbench: no tussle sources under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RunFailed, layers.CoverageError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
