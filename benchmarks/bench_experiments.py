"""Benchmark: every registered experiment, one parametrized case each.

Parametrized over ``tussle.experiments.ALL_EXPERIMENTS``, so registering
an experiment is what enrolls it here.  Each case regenerates the
experiment's table under ``benchmarks/results/<id>.txt`` and asserts
the paper's qualitative shape.
"""

import pytest

from tussle.experiments import ALL_EXPERIMENTS

from conftest import run_and_record


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_experiment(results_dir, experiment_id):
    run_and_record(results_dir, ALL_EXPERIMENTS[experiment_id])
