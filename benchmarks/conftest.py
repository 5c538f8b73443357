"""Shared helpers for the benchmark suite.

``bench_experiments.py`` runs each registered experiment through
:func:`run_and_record`, which times it with pytest-benchmark, asserts
that the paper's qualitative shape holds, and persists two artifacts
under ``benchmarks/results/``:

* ``<id>.txt`` — the regenerated table, so the rows survive pytest's
  output capture;
* ``bench_<id>.json`` — a machine-readable benchmark record (timing from
  the sanctioned :class:`tussle.obs.Profiler`, event counters from a
  per-run :class:`tussle.obs.Metrics` registry) emitted via
  :mod:`tussle.obs.bench`.
"""

import pathlib

import pytest

from tussle.obs import Metrics, Profiler, observe
from tussle.obs.bench import bench_record, write_bench_record

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def run_and_record(benchmark, results_dir, run_experiment, rounds=1):
    """Benchmark an experiment once, persist its artifacts, assert shape.

    The profiler is shared across rounds (so ``wall_seconds_min`` is the
    best of N); the metrics registry is rebuilt per round so counters
    describe exactly one run.
    """
    profiler = Profiler()
    state = {}

    def timed_run():
        metrics = Metrics()
        with observe(metrics=metrics, profiler=profiler):
            with profiler.time("experiment"):
                result = run_experiment()
        state["metrics"] = metrics
        return result

    result = benchmark.pedantic(timed_run, rounds=rounds, iterations=1)
    path = results_dir / f"{result.experiment_id.lower()}.txt"
    path.write_text(result.format() + "\n")
    record = bench_record(result.experiment_id, metrics=state["metrics"],
                          profiler=profiler, result=result)
    write_bench_record(results_dir, record)
    assert result.shape_holds, (
        f"{result.experiment_id} lost the paper's shape: "
        + "; ".join(c.claim for c in result.checks if not c.holds)
    )
    return result
