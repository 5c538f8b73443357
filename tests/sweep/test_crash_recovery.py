"""ResilientExecutor crash recovery: exit, SIGKILL, hang, and give-up.

The acceptance bar: a sweep whose workers are sabotaged on their first
attempt still completes, and its merged deterministic channel is
byte-identical to an all-healthy ``--jobs 1`` run.  Recovery accounting
is visible only on the quarantined ``resil`` channel.
"""

import os
import select
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tussle
from tussle.errors import SweepError
from tussle.experiments.common import canonical_json
from tussle.obs import Metrics, observe
from tussle.resil import FailedCell, WorkerChaos
from tussle.sweep import (
    InProcessExecutor,
    ResilientExecutor,
    SweepSpec,
    run_sweep,
)
from tussle.sweep.aggregate import aggregate


def small_spec(seeds=(0, 1)):
    return SweepSpec(
        experiment_ids=["E01"],
        seeds=list(seeds),
        grid={"n_consumers": [15], "rounds": [6]},
    )


def merged_json(report):
    return canonical_json({"cells": report.cells,
                           "aggregate": aggregate(report.cells)})


def sabotage_all(mode, **kwargs):
    """Chaos that dooms every cell's first attempt with one mode."""
    return WorkerChaos(seed=0, fraction=1.0, modes=(mode,), **kwargs)


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["exit", "kill"])
    def test_worker_death_is_retried_to_byte_identical_output(self, mode):
        spec = small_spec()
        healthy = merged_json(run_sweep(spec, executor=InProcessExecutor()))
        executor = ResilientExecutor(jobs=2, timeout=10.0, retries=3,
                                     chaos=sabotage_all(mode))
        report = run_sweep(spec, executor=executor)
        assert report.ok
        assert merged_json(report) == healthy
        assert executor.recovery["worker_deaths"] == len(spec.cells())
        assert executor.recovery["recovered_cells"] == len(spec.cells())
        assert executor.recovery["failed_cells"] == 0

    def test_hung_worker_hits_timeout_then_recovers(self):
        spec = small_spec(seeds=(0,))
        healthy = merged_json(run_sweep(spec, executor=InProcessExecutor()))
        executor = ResilientExecutor(jobs=1, timeout=0.5, retries=3,
                                     chaos=sabotage_all("hang"))
        report = run_sweep(spec, executor=executor)
        assert report.ok
        assert merged_json(report) == healthy
        assert executor.recovery["timeouts"] == 1
        assert executor.recovery["recovered_cells"] == 1

    def test_retries_visible_in_resil_metrics_scope(self):
        spec = small_spec(seeds=(0,))
        with observe(metrics=Metrics()) as context:
            run_sweep(spec, executor=ResilientExecutor(
                jobs=1, timeout=10.0, retries=3,
                chaos=sabotage_all("exit")))
        counters = context.metrics.scope("resil").snapshot()["counters"]
        assert counters["retries"] == 1
        assert counters["worker_deaths"] == 1
        assert counters["recovered_cells"] == 1

    def test_recovery_stats_quarantined_from_merge(self):
        spec = small_spec(seeds=(0,))
        executor = ResilientExecutor(jobs=1, timeout=10.0, retries=2,
                                     chaos=sabotage_all("exit"))
        report = run_sweep(spec, executor=executor)
        assert report.recovery["retries"] == 1
        assert "recovery" not in merged_json(report)
        assert "retries" not in merged_json(report)


class TestGracefulDegradation:
    def test_exhausted_cell_degrades_to_failed_payload(self):
        spec = small_spec(seeds=(0,))
        # Sabotage outlives the retry budget: the cell must fail
        # permanently — as a structured payload, not a sweep abort.
        executor = ResilientExecutor(
            jobs=1, timeout=10.0, retries=1,
            chaos=sabotage_all("exit", max_attempts=10))
        report = run_sweep(spec, executor=executor)
        assert not report.ok
        [cell] = report.cells
        assert cell["status"] == "failed"
        assert cell["result"] is None
        assert cell["error"]["type"] == "FailedCell"
        assert cell["error"]["attempts"] == 2
        assert len(cell["error"]["reasons"]) == 2
        assert all("worker-death" in r for r in cell["error"]["reasons"])
        assert executor.recovery["failed_cells"] == 1
        assert executor.recovery["recovered_cells"] == 0
        canonical_json(cell)  # failed payloads stay JSON-safe

    def test_failed_cell_payload_without_retries(self):
        spec = small_spec(seeds=(0,))
        executor = ResilientExecutor(
            jobs=1, timeout=10.0, retries=0,
            chaos=sabotage_all("exit", max_attempts=10))
        report = run_sweep(spec, executor=executor)
        [cell] = report.cells
        assert cell["experiment_id"] == "E01"
        assert cell["base_seed"] == 0
        assert cell["error"] == FailedCell(
            "E01", "{}", 0, 1, cell["error"]["reasons"]).to_error_dict()
        assert len(cell["error"]["reasons"]) == 1

    def test_deterministic_error_payload_is_not_retried(self):
        # A cell that raises inside the experiment is a verdict, not an
        # infrastructure failure: no retries are spent on it.
        spec = SweepSpec(experiment_ids=["E01"], seeds=[0],
                         grid={"bogus_kwarg": [1]})
        executor = ResilientExecutor(jobs=1, timeout=10.0, retries=3)
        report = run_sweep(spec, executor=executor)
        [cell] = report.cells
        assert cell["status"] == "error"
        assert cell["error"]["type"] == "TypeError"
        assert executor.recovery["retries"] == 0
        assert executor.recovery["failed_cells"] == 0


class TestConfiguration:
    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0}, {"timeout": 0.0}, {"retries": -1},
        {"timeout": float("inf")},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(SweepError):
            ResilientExecutor(**kwargs)

    def test_healthy_run_without_chaos_matches_in_process(self):
        spec = small_spec()
        healthy = merged_json(run_sweep(spec, executor=InProcessExecutor()))
        executor = ResilientExecutor(jobs=2, timeout=10.0, retries=3)
        report = run_sweep(spec, executor=executor)
        assert merged_json(report) == healthy
        assert executor.recovery == {"retries": 0, "worker_deaths": 0,
                                     "timeouts": 0, "recovered_cells": 0,
                                     "failed_cells": 0}


#: Parks one idle worker (its cell done, the generator suspended), prints
#: the worker pids, then SIGKILLs itself: no atexit, no daemon cleanup.
ORPHANING_PARENT = textwrap.dedent("""
    import multiprocessing, os, signal
    from tussle.sweep import ResilientExecutor, SweepSpec
    from tussle.sweep.executors import cell_task
    spec = SweepSpec(experiment_ids=["E01"], seeds=[0],
                     grid={"n_consumers": [15], "rounds": [6]})
    outputs = ResilientExecutor(jobs=1).imap(
        [cell_task(cell) for cell in spec.cells()])
    next(outputs)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
""")


class TestParentDeath:
    def test_idle_worker_exits_when_its_parent_is_killed(self):
        # The parent and its forked worker inherit the write end of this
        # pipe; EOF on the read end means every holder has exited.
        read_end, write_end = os.pipe()
        env = dict(os.environ,
                   PYTHONPATH=str(Path(tussle.__file__).resolve().parents[1]))
        parent = subprocess.Popen(
            [sys.executable, "-c", ORPHANING_PARENT], env=env,
            stdout=subprocess.PIPE, text=True, pass_fds=(write_end,))
        os.close(write_end)
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert parent.wait(timeout=60) == -signal.SIGKILL
            assert len(pids) == 1
            ready, _, _ = select.select([read_end], [], [], 20.0)
            assert ready, "worker outlived its killed parent"
            assert os.read(read_end, 1) == b""
        finally:
            os.close(read_end)
            parent.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
