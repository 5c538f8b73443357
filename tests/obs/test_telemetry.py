"""Sweep telemetry: two channels, byte-identical deterministic stream."""

import json

from tussle.obs import NullSweepTelemetry, SweepTelemetry, wall_path_for
from tussle.resil import WorkerChaos
from tussle.sweep import (
    InProcessExecutor,
    ResilientExecutor,
    ResultCache,
    SweepSpec,
    run_sweep,
)

SPEC = SweepSpec(
    experiment_ids=["E01"],
    seeds=[0, 1, 2],
    grid={"n_consumers": [15], "rounds": [6]},
)


def det_bytes(executor):
    telemetry = SweepTelemetry()
    run_sweep(SPEC, executor=executor, telemetry=telemetry)
    return telemetry.to_deterministic_jsonl()


class TestChannels:
    def test_wall_path_sibling(self, tmp_path):
        assert wall_path_for("out/t.jsonl").name == "t.wall.jsonl"
        assert wall_path_for("t").name == "t.wall"

    def test_write_emits_both_channels(self, tmp_path):
        telemetry = SweepTelemetry()
        run_sweep(SPEC, telemetry=telemetry)
        det_path, wall_path = telemetry.write(tmp_path / "t.jsonl")
        assert det_path.exists() and wall_path.exists()
        det = [json.loads(line)
               for line in det_path.read_text().splitlines()]
        assert det[0] == {"kind": "meta", "schema": 1,
                          "channel": "deterministic"}
        assert det[-1]["kind"] == "summary"
        wall = [json.loads(line)
                for line in wall_path.read_text().splitlines()]
        assert wall[0]["channel"] == "wall"
        # No wall-clock offsets ever leak into the deterministic channel.
        assert all("t" not in record for record in det)

    def test_det_events_cover_every_cell(self):
        telemetry = SweepTelemetry()
        run_sweep(SPEC, telemetry=telemetry)
        counters = telemetry.det_counters
        assert counters["cells_total"] == 3
        assert counters["dispatched"] == 3
        assert counters["completed_ok"] == 3
        events = [json.loads(line)
                  for line in telemetry.deterministic_lines()[1:-1]]
        assert [e["event"] for e in events] == [
            "cell_dispatched", "cell_completed"] * 3
        assert [e["base_seed"] for e in events] == [0, 0, 1, 1, 2, 2]

    def test_cache_hits_recorded(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(SPEC, cache=cache)
        telemetry = SweepTelemetry()
        run_sweep(SPEC, cache=cache, telemetry=telemetry)
        assert telemetry.det_counters["cache_hits"] == 3
        assert telemetry.det_counters["dispatched"] == 0
        events = [json.loads(line)
                  for line in telemetry.deterministic_lines()[1:-1]]
        assert [e["event"] for e in events] == [
            "cell_cache_hit", "cell_completed"] * 3


class TestByteIdentity:
    def test_serial_vs_pool(self):
        serial = det_bytes(InProcessExecutor())
        pooled = det_bytes(ResilientExecutor(jobs=4))
        assert serial == pooled

    def test_serial_vs_chaos(self):
        """The ISSUE's core gate: 30% sabotage costs wall time, not bytes."""
        serial = det_bytes(InProcessExecutor())
        chaos = WorkerChaos(seed=2, fraction=0.3)
        executor = ResilientExecutor(jobs=4, timeout=2.0, retries=3,
                                     chaos=chaos)
        telemetry = SweepTelemetry()
        run_sweep(SPEC, executor=executor, telemetry=telemetry)
        assert telemetry.to_deterministic_jsonl() == serial
        # ...while the wall channel records what recovery cost.
        assert telemetry.wall_counters["retries"] >= 1
        wall_events = {json.loads(line).get("event")
                       for line in telemetry.wall_lines()[1:-1]}
        assert "cell_retried" in wall_events

    def test_cached_run_differs_only_in_event_names(self, tmp_path):
        # Cache state IS an input to the deterministic channel: the same
        # spec over a warm cache legitimately yields different bytes.
        cold = det_bytes(InProcessExecutor())
        cache = ResultCache(tmp_path)
        run_sweep(SPEC, cache=cache)
        telemetry = SweepTelemetry()
        run_sweep(SPEC, cache=cache, telemetry=telemetry)
        warm = telemetry.to_deterministic_jsonl()
        assert warm != cold
        # Same cells in the same order; only the event name and the
        # cache-hit/dispatch counters move.
        warm_cells = warm.splitlines()[1:-1]
        cold_cells = cold.splitlines()[1:-1]
        assert [line.replace("cell_cache_hit", "cell_dispatched")
                for line in warm_cells] == cold_cells


class TestWallChannel:
    def test_resilient_executor_emits_lifecycle(self):
        executor = ResilientExecutor(jobs=2, timeout=5.0, retries=1)
        telemetry = SweepTelemetry()
        run_sweep(SPEC, executor=executor, telemetry=telemetry)
        events = [json.loads(line)
                  for line in telemetry.wall_lines()[1:-1]]
        names = {e["event"] for e in events}
        assert {"worker_started", "cell_attempt",
                "cell_finished", "worker_exited"} <= names
        attempts = [e for e in events if e["event"] == "cell_attempt"]
        assert telemetry.wall_counters["attempts"] == len(attempts) == 3
        for event in events:
            assert isinstance(event["t"], float) and event["t"] >= 0.0

    def test_workers_reused_and_replaced_only_after_a_death(self):
        spec = SweepSpec(experiment_ids=["E01"], seeds=list(range(6)),
                         grid={"n_consumers": [15], "rounds": [6]})

        def workers_started(chaos):
            executor = ResilientExecutor(jobs=2, chaos=chaos)
            telemetry = SweepTelemetry()
            run_sweep(spec, executor=executor, telemetry=telemetry)
            events = [json.loads(line)["event"]
                      for line in telemetry.wall_lines()[1:-1]]
            return events.count("worker_started"), executor.recovery

        assert workers_started(None)[0] == 2
        # This chaos plan SIGKILLs the worker running base seed 2 once.
        started, recovery = workers_started(
            WorkerChaos(seed=1, fraction=0.3, modes=("kill",)))
        assert recovery["worker_deaths"] == 1
        assert started == 3

    def test_retry_reasons_classified(self):
        telemetry = SweepTelemetry()
        cell = ("E01", "{}", 0)
        telemetry.cell_retried(cell, 1, "worker-death (exit 1)", 0.1)
        telemetry.cell_retried(cell, 2, "timeout after 2.0s", 0.2)
        telemetry.cell_retried(cell, 3, "unknown reason", 0.3)
        assert telemetry.wall_counters["retries"] == 3
        assert telemetry.wall_counters["worker_deaths"] == 1
        assert telemetry.wall_counters["timeouts"] == 1

    def test_summary_line(self):
        telemetry = SweepTelemetry()
        run_sweep(SPEC, telemetry=telemetry)
        line = telemetry.summary_line(1.25)
        assert line == ("sweep: 3 cells, 0 cache hits, 0 retries, "
                       "0 failures, 1.25s wall")
        assert "wall" not in telemetry.summary_line()


class TestNullTelemetry:
    def test_null_records_nothing(self):
        telemetry = NullSweepTelemetry()
        run_sweep(SPEC, telemetry=telemetry)
        assert not telemetry.enabled
        assert len(telemetry.deterministic_lines()) == 2  # header+summary
        assert telemetry.det_counters["cells_total"] == 0
        assert telemetry.elapsed() == 0.0

    def test_disabled_telemetry_is_dropped_by_scheduler(self):
        executor = InProcessExecutor()
        run_sweep(SPEC, executor=executor,
                  telemetry=NullSweepTelemetry())
        # The scheduler nulls it out rather than injecting it.
        assert executor.telemetry is None
