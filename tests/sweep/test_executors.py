"""Executor parity: resilient worker and in-process runs are byte-identical."""

import pytest

from tussle.experiments import ALL_EXPERIMENTS
from tussle.experiments.common import canonical_json
from tussle.sweep import (
    InProcessExecutor,
    ResilientExecutor,
    SweepSpec,
    aggregate,
    run_cell,
    run_sweep,
)
from tussle.sweep.executors import cell_task


def merged_json(spec, executor):
    return report_json(run_sweep(spec, executor=executor))


def report_json(report):
    return canonical_json({"cells": report.cells,
                           "aggregate": aggregate(report.cells)})


class TestParity:
    def test_pool_matches_in_process_on_small_grid(self):
        spec = SweepSpec(
            experiment_ids=["E01", "E03"],
            seeds=[0, 1],
            grid={"n_consumers": [15], "rounds": [6]},
        )
        serial = merged_json(spec, InProcessExecutor())
        pooled = merged_json(spec, ResilientExecutor(jobs=2))
        assert serial == pooled

    def test_pool_isolates_cell_failures(self):
        spec = SweepSpec(experiment_ids=["E01"], seeds=[0, 1],
                         grid={"bogus_kwarg": [1]})
        report = run_sweep(spec, executor=ResilientExecutor(jobs=2))
        assert len(report.failed) == 2
        assert all(c["error"]["type"] == "TypeError" for c in report.cells)

    def test_jobs_one_runs_in_a_single_worker(self):
        executor = ResilientExecutor(jobs=1)
        spec = SweepSpec(experiment_ids=["E01"], seeds=[0],
                         grid={"n_consumers": [15], "rounds": [6]})
        report = run_sweep(spec, executor=executor)
        assert report.ok

    def test_invalid_jobs_rejected(self):
        from tussle.errors import SweepError

        with pytest.raises(SweepError):
            ResilientExecutor(jobs=0)


class TestWorkerPayload:
    def test_payload_is_json_safe_and_profiled(self):
        spec = SweepSpec(experiment_ids=["E01"], seeds=[3],
                         grid={"n_consumers": [15], "rounds": [6]})
        [cell] = spec.cells()
        output = run_cell(cell_task(cell))
        canonical_json(output["payload"])  # must not raise
        assert output["payload"]["status"] == "ok"
        assert output["payload"]["seed"] == cell.seed
        assert output["payload"]["base_seed"] == 3
        assert output["profile"]["seconds"] > 0.0
        assert output["profile"]["worker"]

    def test_result_survives_ipc_roundtrip(self):
        from tussle.experiments.common import ExperimentResult
        from tussle.lint.seedcheck import fingerprint

        spec = SweepSpec(experiment_ids=["E04"], seeds=[0], grid={})
        [cell] = spec.cells()
        output = run_cell(cell_task(cell))
        revived = ExperimentResult.from_json(
            canonical_json(output["payload"]["result"]))
        direct = ALL_EXPERIMENTS["E04"](seed=cell.seed)
        assert fingerprint(revived) == fingerprint(direct)


@pytest.mark.slow
class TestFullMatrixDeterminism:
    """Acceptance: every experiment x 5 seeds, --jobs 1 vs --jobs 4."""

    def test_full_matrix_byte_identical_across_job_counts(
            self, registry_sweep):
        spec = SweepSpec(experiment_ids=sorted(ALL_EXPERIMENTS),
                         seeds=list(range(5)), grid={})
        serial = report_json(registry_sweep(range(5)))
        pooled = merged_json(spec, ResilientExecutor(jobs=4))
        assert serial == pooled
