"""Shared helpers for the benchmark suite.

``bench_experiments.py`` runs each registered experiment through
:func:`run_and_record`, which writes the regenerated table to
``benchmarks/results/<id>.txt`` (so the rows survive pytest's output
capture) and asserts that the paper's qualitative shape holds.  Speed
is measured by ``perfbench/run.py`` and kept in the perf ledger
(``python -m tussle.obs perf``), not here.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def run_and_record(results_dir, run_experiment):
    """Run an experiment, write its ``<id>.txt`` table, assert shape."""
    result = run_experiment()
    path = results_dir / f"{result.experiment_id.lower()}.txt"
    path.write_text(result.format() + "\n")
    assert result.shape_holds, (
        f"{result.experiment_id} lost the paper's shape: "
        + "; ".join(c.claim for c in result.checks if not c.holds)
    )
    return result
