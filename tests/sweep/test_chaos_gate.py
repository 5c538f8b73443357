"""The chaos gate: a 30%-sabotaged sweep must merge byte-identically.

CI's blocking ``resil`` job runs this module.  A ``WorkerChaos`` dooms
roughly 30% of cells to crash or hang on their first attempt; the
``ResilientExecutor`` must retry them to completion with the merged
deterministic channel byte-identical to an all-healthy ``--jobs 1``
run — the recovery machinery may cost wall-clock, never bytes.
"""

import pytest

from tussle.experiments import ALL_EXPERIMENTS
from tussle.experiments.common import canonical_json
from tussle.obs.diff import first_divergence, format_divergence
from tussle.resil import WorkerChaos
from tussle.sweep import (
    InProcessExecutor,
    ResilientExecutor,
    SweepSpec,
    aggregate,
    run_sweep,
)
from tussle.sweep.executors import cell_task


def merged_lines(report):
    """One canonical record per cell plus the aggregate, diff-friendly."""
    return ([canonical_json(cell) for cell in report.cells]
            + [canonical_json(aggregate(report.cells))])


def assert_streams_identical(healthy, chaotic):
    """Byte-identity with a localized first divergence on failure."""
    divergence = first_divergence(healthy, chaotic)
    assert divergence is None, (
        "chaos run diverged from healthy run:\n"
        + format_divergence(divergence, "healthy", "chaos"))


def doomed_cells(chaos, spec):
    tasks = [cell_task(cell) for cell in spec.cells()]
    return [t for t in tasks if chaos.doomed(
        t["experiment_id"], t["params_json"], t["base_seed"])]


class TestChaosGate:
    def test_thirty_percent_chaos_merges_byte_identical(self):
        spec = SweepSpec(
            experiment_ids=["E01", "E03"],
            seeds=list(range(5)),
            grid={"n_consumers": [15], "rounds": [6]},
        )
        chaos = WorkerChaos(seed=2, fraction=0.3)
        doomed = doomed_cells(chaos, spec)
        # The gate only means something if sabotage actually happens.
        assert doomed, "chaos seed dooms no cells; pick another seed"

        healthy = merged_lines(run_sweep(spec, executor=InProcessExecutor()))
        executor = ResilientExecutor(jobs=4, timeout=2.0, retries=3,
                                     chaos=chaos)
        report = run_sweep(spec, executor=executor)

        assert report.ok, f"chaos sweep failed cells: {report.failed}"
        assert_streams_identical(healthy, merged_lines(report))
        assert executor.recovery["recovered_cells"] == len(doomed)
        assert executor.recovery["failed_cells"] == 0
        assert executor.recovery["retries"] >= len(doomed)

    def test_doomed_set_is_deterministic_in_seed(self):
        spec = SweepSpec(experiment_ids=["E01", "E03"],
                         seeds=list(range(10)), grid={})
        a = doomed_cells(WorkerChaos(seed=7, fraction=0.3), spec)
        b = doomed_cells(WorkerChaos(seed=7, fraction=0.3), spec)
        assert a == b
        full = doomed_cells(WorkerChaos(seed=7, fraction=1.0), spec)
        assert len(full) == len(spec.cells())


@pytest.mark.slow
class TestFullMatrixChaosGate:
    """Acceptance: all experiments x 3 seeds under 30% worker chaos."""

    def test_full_registry_survives_chaos(self, registry_sweep):
        spec = SweepSpec(experiment_ids=sorted(ALL_EXPERIMENTS),
                         seeds=list(range(3)), grid={})
        healthy = merged_lines(registry_sweep(range(3)))
        # The slowest healthy cell of this sweep under jobs=4 on a 2-vCPU
        # host took 1.47s (worst of nine runs: P02, or E11 while its
        # solver still imported scipy); 6s is ~4x that.  Each
        # hang-mode cell costs one timeout, since chaos only sabotages
        # first attempts (max_attempts=1).
        executor = ResilientExecutor(jobs=4, timeout=6.0, retries=3,
                                     chaos=WorkerChaos(seed=0, fraction=0.3))
        report = run_sweep(spec, executor=executor)
        assert report.ok
        assert_streams_identical(healthy, merged_lines(report))
        assert executor.recovery["failed_cells"] == 0
