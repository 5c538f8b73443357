"""Benchmark record emitter: assembly and on-disk format."""

import json

from tussle.obs import Metrics, Profiler
from tussle.obs.bench import SCHEMA_VERSION, bench_record, write_bench_record


def populated_metrics():
    metrics = Metrics()
    engine = metrics.scope("netsim.engine")
    engine.counter("events_fired").inc(42)
    engine.gauge("queue_depth").set(9)
    metrics.scope("econ.market").counter("switches").inc(3)
    return metrics


class TestBenchRecord:
    def test_counters_flatten_to_scoped_keys(self):
        record = bench_record("E01", metrics=populated_metrics())
        assert record.event_counts == {"netsim.engine/events_fired": 42,
                                       "econ.market/switches": 3}

    def test_timing_from_profiler_key(self):
        profiler = Profiler()
        profiler.record("experiment", 0.5)
        profiler.record("experiment", 0.3)
        record = bench_record("E01", profiler=profiler)
        assert record.calls == 2
        assert record.wall_seconds_min == 0.3
        assert record.wall_seconds == 0.4  # mean

    def test_shape_verdict_from_result(self):
        class FakeResult:
            shape_holds = True
        assert bench_record("E01", result=FakeResult()).shape_holds is True
        assert bench_record("E01").shape_holds is None

    def test_extra_fields_land_in_payload(self):
        record = bench_record("X", overhead_fraction=0.01)
        assert record.to_dict()["overhead_fraction"] == 0.01

    def test_empty_record_is_well_formed(self):
        payload = bench_record("EMPTY").to_dict()
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["id"] == "EMPTY"
        assert payload["wall_seconds"] is None
        assert "shape_holds" not in payload


class TestWriteBenchRecord:
    def test_writes_bench_id_lowercase(self, tmp_path):
        path = write_bench_record(tmp_path, bench_record("E01"))
        assert path.name == "bench_e01.json"

    def test_creates_results_dir(self, tmp_path):
        target = tmp_path / "nested" / "results"
        path = write_bench_record(target, bench_record("E02"))
        assert path.exists()

    def test_payload_round_trips(self, tmp_path):
        profiler = Profiler()
        profiler.record("experiment", 0.25)
        record = bench_record("E03", metrics=populated_metrics(),
                              profiler=profiler, rounds=5)
        payload = json.loads(write_bench_record(tmp_path, record).read_text())
        assert payload["wall_seconds"] == 0.25
        assert payload["rounds"] == 5
        assert payload["event_counts"]["econ.market/switches"] == 3
        assert payload["metrics"]["netsim.engine"]["counters"][
            "events_fired"] == 42
