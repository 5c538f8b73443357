"""Perf-history ledger: ingest, trend extraction, regression gating."""

import json

import pytest

from tussle.errors import ObservabilityError
from tussle.obs import perfdb


def bench_record(bench_id, wall_min, wall=None, counts=None):
    return {
        "id": bench_id,
        "wall_seconds": wall if wall is not None else wall_min * 1.2,
        "wall_seconds_min": wall_min,
        "calls": 3,
        "event_counts": counts or {"engine.fire": 10},
        "shape_holds": True,
    }


def write_results(directory, *records):
    directory.mkdir(parents=True, exist_ok=True)
    for record in records:
        path = directory / f"bench_{record['id'].lower()}.json"
        path.write_text(json.dumps(record))
    return directory


class TestLedgerIO:
    def test_missing_history_is_empty_ledger(self, tmp_path):
        history = perfdb.load_history(tmp_path / "history.json")
        assert history == {"schema": 1, "benchmarks": {}}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "history.json"
        history = perfdb.load_history(path)
        perfdb.ingest(history, {"E01": bench_record("E01", 0.05)})
        perfdb.write_history(path, history)
        again = perfdb.load_history(path)
        assert again == history
        # Reviewable: indented, sorted, trailing newline.
        text = path.read_text()
        assert text.endswith("\n") and '"schema": 1' in text

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text('{"schema": 99, "benchmarks": {}}')
        with pytest.raises(ObservabilityError, match="schema"):
            perfdb.load_history(path)

    def test_load_results_rejects_damaged_record(self, tmp_path):
        directory = write_results(tmp_path / "results",
                                  bench_record("E01", 0.05))
        (directory / "bench_broken.json").write_text("{truncated")
        with pytest.raises(ObservabilityError, match="cannot read"):
            perfdb.load_results(directory)

    def test_load_results_requires_id(self, tmp_path):
        directory = tmp_path / "results"
        directory.mkdir()
        (directory / "bench_x.json").write_text('{"wall_seconds": 1}')
        with pytest.raises(ObservabilityError, match="missing 'id'"):
            perfdb.load_results(directory)


class TestIngest:
    def test_runs_are_ledger_positions_not_timestamps(self, tmp_path):
        history = perfdb.load_history(tmp_path / "h.json")
        perfdb.ingest(history, {"E01": bench_record("E01", 0.05)})
        perfdb.ingest(history, {"E01": bench_record("E01", 0.04)})
        entries = history["benchmarks"]["E01"]
        assert [entry["run"] for entry in entries] == [1, 2]
        assert all("timestamp" not in entry for entry in entries)

    def test_wall_quarantined_under_wall_key(self, tmp_path):
        history = perfdb.load_history(tmp_path / "h.json")
        perfdb.ingest(history, {"E01": bench_record("E01", 0.05)})
        [entry] = history["benchmarks"]["E01"]
        assert entry["wall"]["seconds_min"] == 0.05
        assert entry["det"]["event_counts"] == {"engine.fire": 10}
        assert "seconds" not in entry["det"]


class TestTrend:
    def test_direction(self, tmp_path):
        history = perfdb.load_history(tmp_path / "h.json")
        for wall in (0.05, 0.055, 0.10):
            perfdb.ingest(history, {"E01": bench_record("E01", wall)})
        trend = perfdb.trend(history, "E01")
        assert trend["runs"] == 3
        assert trend["latest"] == 0.10 and trend["best"] == 0.05
        assert trend["direction"] == "slower"

    def test_unknown_benchmark_raises(self):
        with pytest.raises(ObservabilityError, match="no history"):
            perfdb.trend({"schema": 1, "benchmarks": {}}, "E99")


class TestCheck:
    def setup_method(self):
        self.history = {"schema": 1, "benchmarks": {}}
        perfdb.ingest(self.history, {"E01": bench_record("E01", 0.05)})

    def test_within_threshold_passes(self):
        findings, ok = perfdb.check(
            self.history, {"E01": bench_record("E01", 0.06)})
        assert ok and findings == []

    def test_regression_blocks(self):
        findings, ok = perfdb.check(
            self.history, {"E01": bench_record("E01", 0.50)})
        assert not ok
        [finding] = findings
        assert finding.kind == "regression" and finding.blocking
        assert "0.5000s" in finding.message

    def test_abs_floor_swallows_microbench_jitter(self):
        history = {"schema": 1, "benchmarks": {}}
        perfdb.ingest(history, {"E07": bench_record("E07", 0.0002)})
        # 5x slower but only 0.8ms absolute: noise, not a regression.
        findings, ok = perfdb.check(
            history, {"E07": bench_record("E07", 0.001)})
        assert ok

    def test_new_benchmark_does_not_block(self):
        findings, ok = perfdb.check(
            self.history, {"NEW": bench_record("NEW", 1.0)})
        assert ok
        assert findings[0].kind == "new-benchmark"

    def test_counter_drift_reported_non_blocking(self):
        findings, ok = perfdb.check(
            self.history,
            {"E01": bench_record("E01", 0.05,
                                 counts={"engine.fire": 99})})
        assert ok
        [finding] = findings
        assert finding.kind == "counter-drift" and not finding.blocking

    def test_fresh_record_without_wall_is_reported_unmeasured(self):
        record = bench_record("E01", 0.05)
        record["wall_seconds"] = record["wall_seconds_min"] = None
        findings, ok = perfdb.check(self.history, {"E01": record})
        assert ok
        [finding] = findings
        assert finding.kind == "unmeasured" and not finding.blocking
        assert "fresh record" in finding.message

    def test_ledger_without_walls_is_reported_unmeasured(self):
        history = {"schema": 1, "benchmarks": {}}
        unmeasured = bench_record("S01", 0.05)
        unmeasured["wall_seconds"] = unmeasured["wall_seconds_min"] = None
        perfdb.ingest(history, {"S01": unmeasured})
        findings, ok = perfdb.check(history,
                                    {"S01": bench_record("S01", 50.0)})
        assert ok
        [finding] = findings
        assert finding.kind == "unmeasured" and not finding.blocking
        assert "ledger" in finding.message

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ObservabilityError, match="threshold"):
            perfdb.check(self.history, {}, threshold=0.9)
