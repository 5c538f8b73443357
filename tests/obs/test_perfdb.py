"""Perf ledger: perfbench results in, run-numbered entries out, and the
gate at the benchmark contract's bounds."""

import copy
import json
from pathlib import Path

import pytest

from tussle.errors import ObservabilityError
from tussle.obs import perfdb

REPO = Path(__file__).resolve().parents[2]

#: A two-metric contract: one ``lower`` and one ``higher`` end-to-end
#: metric, and one per-layer metric.
BENCHMARK = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "items_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
    ],
    "per_layer": [{"name": "step_s", "unit": "s", "better": "lower"}],
}


def result(failed=0, **values):
    """The payload of a perfbench result line."""
    return {"correct": failed == 0, "attempted": 3, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in values.items()}}


def measured(wall_s=1.0, items_per_s=10.0, step_s=0.5, failed=0):
    """The ``--trace 0`` and ``--trace 1`` results of one tree."""
    return [result(wall_s=wall_s, items_per_s=items_per_s, failed=failed),
            result(step_s=step_s)]


def ledger(*runs):
    """A ledger with one ingested entry per ``measured`` keyword set."""
    history = {"schema": 2, "workloads": {}}
    for run in runs:
        perfdb.ingest(history, BENCHMARK, "w", measured(**run))
    return history


def write_result(path, payload):
    """A perfbench stdout: lines for people, then the JSON result."""
    path.write_text("workload w, workload seed 0\n"
                    + (payload if isinstance(payload, str)
                       else json.dumps(payload)) + "\n")
    return path


class TestLedgerIO:
    def test_missing_history_is_empty_ledger(self, tmp_path):
        history = perfdb.load_history(tmp_path / "history.json")
        assert history == {"schema": 2, "workloads": {}}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "history.json"
        history = ledger({})
        perfdb.write_history(path, history)
        assert perfdb.load_history(path) == history
        # Reviewable: indented, sorted, trailing newline.
        text = path.read_text()
        assert text.endswith("\n") and '"schema": 2' in text

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text('{"schema": 1, "workloads": {}}')
        with pytest.raises(ObservabilityError, match="schema"):
            perfdb.load_history(path)


class TestIngest:
    def test_runs_are_ledger_positions_not_timestamps(self):
        entries = ledger({}, {"wall_s": 0.9})["workloads"]["w"]
        assert [entry["run"] for entry in entries] == [1, 2]
        assert all(set(entry) == {"run", "wall", "layers", "det"}
                   for entry in entries)

    def test_wall_quarantined_under_wall_key(self):
        [entry] = ledger({})["workloads"]["w"]
        assert entry == {"run": 1,
                         "wall": {"wall_s": 1.0, "items_per_s": 10.0},
                         "layers": {"step_s": 0.5},
                         "det": {"attempted": 6, "failed": 0}}

    def test_reads_the_last_line_of_a_result_file(self, tmp_path):
        path = write_result(tmp_path / "r.txt", result(wall_s=1.0))
        assert perfdb.read_result(path) == result(wall_s=1.0)

    def test_refuses_a_damaged_result(self, tmp_path):
        path = write_result(tmp_path / "r.txt", "{truncated")
        with pytest.raises(ObservabilityError, match="not a perfbench"):
            perfdb.read_result(path)

    def test_refuses_a_line_that_is_not_a_result(self, tmp_path):
        path = write_result(tmp_path / "r.txt", {"wall_seconds": 1})
        with pytest.raises(ObservabilityError, match="not a perfbench"):
            perfdb.read_result(path)

    def test_refuses_unknown_workload(self):
        history = ledger({})
        before = copy.deepcopy(history)
        with pytest.raises(ObservabilityError, match="not in the benchmark"):
            perfdb.ingest(history, BENCHMARK, "v", measured())
        assert history == before

    def test_refuses_results_that_miss_a_listed_metric(self):
        history = ledger({})
        before = copy.deepcopy(history)
        with pytest.raises(ObservabilityError, match="miss 1 metric.*step_s"):
            perfdb.ingest(history, BENCHMARK, "w", measured()[:1])
        assert history == before

    def test_refuses_a_repeat_of_the_previous_entry(self):
        history = ledger({})
        before = copy.deepcopy(history)
        with pytest.raises(ObservabilityError, match="repeats run 1"):
            perfdb.ingest(history, BENCHMARK, "w", measured())
        assert history == before


class TestMoves:
    def test_relative_move(self):
        rows = perfdb.moves(ledger({}, {"wall_s": 1.5}), BENCHMARK, "w")
        assert rows == [("wall_s", "s", 1.0, 1.5, 0.5),
                        ("items_per_s", "1/s", 10.0, 10.0, 0.0),
                        ("step_s", "s", 0.5, 0.5, 0.0)]

    def test_first_entry_has_no_previous_value(self):
        rows = perfdb.moves(ledger({}), BENCHMARK, "w")
        assert rows[0] == ("wall_s", "s", None, 1.0, None)
        assert perfdb.moves(ledger(), BENCHMARK, "w") == []


class TestCheck:
    def test_within_threshold_passes(self):
        assert perfdb.check(ledger({}), BENCHMARK) == []
        assert perfdb.check(ledger({}, {"wall_s": 1.2, "items_per_s": 8.0}),
                            BENCHMARK) == []

    def test_regression_blocks(self):
        [finding] = perfdb.check(ledger({}, {"wall_s": 1.3}), BENCHMARK)
        assert (finding.workload, finding.kind) == ("w", "regression")
        assert "wall_s 1.0 -> 1.3 s (run 1 -> 2)" in finding.message

    def test_higher_metric_regression_blocks(self):
        [finding] = perfdb.check(ledger({}, {"items_per_s": 7.4}),
                                 BENCHMARK)
        assert finding.kind == "regression"
        assert finding.message.startswith("items_per_s 10.0 -> 7.4")

    def test_new_benchmark_blocks(self):
        contract = dict(BENCHMARK, workloads=[{"name": "w"}, {"name": "v"}])
        [finding] = perfdb.check(ledger({}), contract)
        assert (finding.workload, finding.kind) == ("v", "missing")

    def test_incomplete_entry_blocks(self):
        history = ledger({}, {"wall_s": 0.9})
        del history["workloads"]["w"][-1]["layers"]["step_s"]
        [finding] = perfdb.check(history, BENCHMARK)
        assert finding.kind == "incomplete" and "step_s" in finding.message

    def test_failed_operation_blocks(self):
        [finding] = perfdb.check(ledger({"failed": 1}), BENCHMARK)
        assert finding.kind == "failed"
        assert "failed 1 of 6" in finding.message

    def test_per_layer_move_never_blocks(self):
        history = ledger({}, {"step_s": 50.0})
        assert perfdb.check(history, BENCHMARK) == []


class TestCommittedLedger:
    def test_passes_check_and_covers_every_metric(self):
        benchmark = perfdb.load_benchmark(REPO / "BENCHMARK.json")
        history = perfdb.load_history(REPO / "benchmarks" / "history.json")
        assert perfdb.check(history, benchmark) == []
        wall = {metric["name"] for metric in benchmark["end_to_end"]}
        layers = {metric["name"] for metric in benchmark["per_layer"]}
        for workload in benchmark["workloads"]:
            entries = history["workloads"][workload["name"]]
            assert len(entries) >= 2
            for entry in entries:
                assert set(entry["wall"]) == wall
                assert set(entry["layers"]) == layers
