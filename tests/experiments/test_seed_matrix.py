"""Seed-matrix tier: every experiment's shape claims hold on every seed.

This is the robustness tier ISSUE 3 calls for: the full 28-experiment
matrix (paper claims E01-E12, extensions X01-X07, at-scale L01-L02,
resilience R01-R02, substrate N01, topology T01-T02, peering P01-P02)
over >= 5 base seeds, run through the sweep engine's in-process
executor so the exact cell/seed-derivation path exercised here is the
one ``python -m tussle sweep`` uses.  A single-seed demo can pass by
luck; this tier is the evidence the headline claims are properties of
the models, not of seed 0.  The sweep is the session's shared
``registry_sweep`` (tests/conftest.py), built one seed at a time.

Marked ``slow``: CI runs it (the ``sweep`` job), local quick runs can
deselect with ``-m 'not slow'``.
"""

import pytest

from tussle.experiments import ALL_EXPERIMENTS
from tussle.sweep.aggregate import aggregate

N_SEEDS = 5


@pytest.fixture(scope="module")
def matrix_report(registry_sweep):
    return registry_sweep(range(N_SEEDS))


@pytest.mark.slow
class TestSeedMatrix:
    def test_matrix_covers_every_experiment_and_seed(self, matrix_report):
        assert matrix_report.stats["cells_total"] == \
            len(ALL_EXPERIMENTS) * N_SEEDS
        seen = {(c["experiment_id"], c["base_seed"])
                for c in matrix_report.cells}
        assert seen == {(eid, s) for eid in ALL_EXPERIMENTS
                        for s in range(N_SEEDS)}

    def test_no_cell_errors(self, matrix_report):
        assert matrix_report.ok, [
            (c["experiment_id"], c["base_seed"], c["error"])
            for c in matrix_report.failed]

    @pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
    def test_every_shape_check_holds_on_every_seed(self, matrix_report,
                                                   experiment_id):
        cells = [c for c in matrix_report.cells
                 if c["experiment_id"] == experiment_id]
        assert len(cells) == N_SEEDS
        broken = [
            (cell["base_seed"], check["claim"])
            for cell in cells
            for check in cell["result"]["checks"]
            if not check["holds"]
        ]
        assert broken == []

    def test_aggregate_declares_full_matrix_robust(self, matrix_report):
        aggregated = aggregate(matrix_report.cells)
        assert aggregated["robust"] is True
        assert len(aggregated["verdicts"]) == len(ALL_EXPERIMENTS)
        for verdict in aggregated["verdicts"]:
            assert f"shape holds on {N_SEEDS}/{N_SEEDS} seeds" in verdict
