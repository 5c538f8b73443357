"""Sweep engine scaling benchmark: 1/2/4-worker wall time + parity.

Runs the full registry x 5-seed matrix through
:class:`tussle.sweep.ResilientExecutor` at 1, 2, and 4 workers,
times each configuration with the sanctioned Profiler, and asserts two
things:

* the merged deterministic channel is byte-identical at every worker
  count (scaling must never change results);
* on a host with >= 4 cores, 4 workers beat 1 worker by >= 1.5x.
  Single- and dual-core hosts still time the runs but skip the
  speedup assertion — there is no parallelism to win there, only
  fork/IPC overhead.
"""

import os

from tussle.experiments import ALL_EXPERIMENTS
from tussle.experiments.common import canonical_json
from tussle.obs import Profiler
from tussle.sweep import ResilientExecutor, SweepSpec, run_sweep
from tussle.sweep.aggregate import aggregate

#: Worker counts exercised, in recorded order.
JOB_COUNTS = (1, 2, 4)
#: Seeds per experiment (matches the CI seed-matrix tier).
N_SEEDS = 5
#: Required 4-worker speedup over 1 worker, asserted only when the host
#: actually has >= 4 cores to parallelise across.
MIN_SPEEDUP_4X = 1.5


def test_sweep_scaling_and_parity():
    spec = SweepSpec(experiment_ids=sorted(ALL_EXPERIMENTS),
                     seeds=list(range(N_SEEDS)), grid={})
    profiler = Profiler()

    merged = {}
    for jobs in JOB_COUNTS:
        with profiler.time(f"jobs_{jobs}"):
            report = run_sweep(spec, executor=ResilientExecutor(jobs=jobs))
        assert report.ok, report.failed
        merged[jobs] = canonical_json({"cells": report.cells,
                                       "aggregate": aggregate(report.cells)})

    baseline = merged[JOB_COUNTS[0]]
    assert all(text == baseline for text in merged.values()), (
        "merged sweep output differs across worker counts"
    )

    seconds = {jobs: profiler.min_seconds(f"jobs_{jobs}")
               for jobs in JOB_COUNTS}
    cores = os.cpu_count() or 1
    speedup_4x = seconds[1] / seconds[4] if seconds[4] > 0 else 0.0

    if cores >= 4:
        assert speedup_4x >= MIN_SPEEDUP_4X, (
            f"4-worker sweep only {speedup_4x:.2f}x faster than 1 worker "
            f"({seconds[1]:.2f}s -> {seconds[4]:.2f}s); "
            f"required {MIN_SPEEDUP_4X}x on a {cores}-core host"
        )
