"""Trace report: aggregation and the ``python -m tussle.obs`` CLI."""

import json

import pytest

from tussle.errors import ObservabilityError
from tussle.obs import SweepTelemetry, Tracer
from tussle.obs.__main__ import main as obs_main
from tussle.obs.report import (
    TraceReport,
    build_report,
    build_sweep_report,
    load_trace,
    load_trace_tolerant,
)


def synthetic_trace(tmp_path):
    """Two scopes: four engine events (three fires) and one market span."""
    tracer = Tracer()
    span = tracer.begin("econ.market", "round", 0.0)
    for t in (0.0, 1.0, 2.0):
        tracer.event("netsim.engine", "fire", t)
    tracer.event("netsim.engine", "schedule", 0.0)
    span.end(2.0, switches=1)
    return tracer.write_jsonl(tmp_path / "trace.jsonl")


class TestLoadTrace:
    def test_round_trips_records(self, tmp_path):
        path = synthetic_trace(tmp_path)
        records = load_trace(path)
        assert len(records) == 5
        assert {r["kind"] for r in records} == {"span", "event"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot read"):
            load_trace(tmp_path / "nope.jsonl")

    def test_invalid_json_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"event"}\nnot json\n')
        with pytest.raises(ObservabilityError, match="bad.jsonl:2"):
            load_trace(path)

    def test_non_record_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"no_kind": 1}\n')
        with pytest.raises(ObservabilityError, match="missing 'kind'"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gappy.jsonl"
        path.write_text('{"kind":"event","scope":"s","name":"n","t":0.0}\n\n')
        assert len(load_trace(path)) == 1


class TestTraceReport:
    def test_subsystem_breakdown(self, tmp_path):
        report = build_report(synthetic_trace(tmp_path))
        rows = {r["scope"]: r for r in report.subsystem_breakdown()}
        market = rows["econ.market"]
        assert market["spans"] == 1 and market["span_time"] == 2.0
        engine = rows["netsim.engine"]
        assert engine["events"] == 4
        assert engine["t_min"] == 0.0 and engine["t_max"] == 2.0
        # Sorted by span time: the market span ranks first.
        assert report.subsystem_breakdown()[0]["scope"] == "econ.market"

    def test_event_rates(self, tmp_path):
        report = build_report(synthetic_trace(tmp_path))
        rates = {(r["scope"], r["name"]): r for r in report.event_rates()}
        fire = rates[("netsim.engine", "fire")]
        assert fire["count"] == 3
        assert fire["rate"] == pytest.approx(1.5)  # 3 events over t∈[0,2]

    def test_format_contains_all_sections(self, tmp_path):
        text = build_report(synthetic_trace(tmp_path)).format()
        assert "Per-subsystem breakdown" in text
        assert "Event rates" in text

    def test_to_dict_is_json_ready(self, tmp_path):
        payload = build_report(synthetic_trace(tmp_path)).to_dict()
        json.dumps(payload)  # must not raise
        assert payload["records"] == 5

    def test_empty_trace_report(self):
        report = TraceReport([])
        assert report.subsystem_breakdown() == []
        assert "0 records" in report.format()


class TestTolerantLoading:
    """S1: damaged traces yield a partial report, never a traceback."""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        records, problems = load_trace_tolerant(path)
        assert records == [] and problems == []
        report = build_report(path, strict=False)
        assert "0 records" in report.format()

    def test_truncated_tail_salvaged(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(
            '{"kind":"event","scope":"s","name":"n","t":1.0}\n'
            '{"kind":"span","scope":"s","name":"m","t0":0.0,"t1"')
        records, problems = load_trace_tolerant(path)
        assert len(records) == 1
        assert len(problems) == 1 and "truncated.jsonl:2" in problems[0]
        report = build_report(path, strict=False)
        assert len(report.events) == 1
        assert report.problems == problems

    def test_mixed_schema_records_counted_not_crashed(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"kind":"meta","schema":1,"channel":"deterministic"}\n'
            '{"kind":"cell","event":"cell_dispatched","base_seed":0}\n'
            '{"kind":"event","scope":"s","name":"n","t":1.0}\n')
        report = build_report(path, strict=False)
        assert len(report.records) == 1
        assert len(report.other) == 2
        assert "other-schema" in report.format()
        assert report.to_dict()["other"] == 2

    def test_broken_timestamps_quarantined(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(
            '{"kind":"span","scope":"s","name":"m","t0":"zero","t1":1.0}\n'
            '{"kind":"event","scope":"s","name":"n"}\n'
            '{"kind":"event","scope":"s","name":"n","t":2.0}\n')
        records, problems = load_trace_tolerant(path)
        assert len(records) == 1
        assert any("t0/t1" in p for p in problems)
        assert any("numeric t" in p for p in problems)
        # The salvaged record still aggregates.
        report = TraceReport(records, problems=problems)
        assert report.subsystem_breakdown()[0]["events"] == 1
        assert "Problems (2)" in report.format()

    def test_strict_mode_unchanged(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(ObservabilityError, match="bad.jsonl:1"):
            build_report(path)

    def test_report_never_raises_on_malformed_records(self):
        report = TraceReport([
            {"kind": "span", "scope": "s", "name": "m", "t0": None,
             "t1": 1.0},
            "not even a dict",
            {"kind": "event", "scope": "s", "name": "n", "t": 0.0},
        ])
        assert len(report.records) == 1
        assert len(report.skipped) == 2
        assert len(report.problems) == 2


def sweep_telemetry_files(tmp_path):
    from tussle.sweep import SweepSpec, run_sweep
    spec = SweepSpec(experiment_ids=["E01"], seeds=[0, 1],
                     grid={"n_consumers": [15], "rounds": [6]})
    telemetry = SweepTelemetry()
    run_sweep(spec, telemetry=telemetry)
    return telemetry.write(tmp_path / "telemetry.jsonl")


class TestSweepTelemetryReport:
    def test_totals_and_cache_rate(self, tmp_path):
        det_path, _ = sweep_telemetry_files(tmp_path)
        report = build_sweep_report(det_path)
        assert report.schema == 1
        assert report.det_counters["cells_total"] == 2
        assert report.cache_hit_rate() == 0.0
        assert report.problems == []

    def test_worker_utilization_and_stragglers(self, tmp_path):
        det_path, _ = sweep_telemetry_files(tmp_path)
        report = build_sweep_report(det_path)
        [worker] = report.worker_utilization()
        assert worker["cells"] == 2 and worker["busy_seconds"] > 0
        stragglers = report.stragglers()
        assert len(stragglers) == 2
        assert stragglers[0]["seconds"] >= stragglers[1]["seconds"]

    def test_missing_wall_sibling_is_partial_not_fatal(self, tmp_path):
        det_path, wall_path = sweep_telemetry_files(tmp_path)
        wall_path.unlink()
        report = build_sweep_report(det_path)
        assert report.det_counters["cells_total"] == 2
        assert report.worker_utilization() == []

    def test_retry_storms_from_wall_events(self):
        from tussle.obs.report import SweepTelemetryReport
        telemetry = SweepTelemetry()
        cell = ("E01", "{}", 4)
        telemetry.cell_retried(cell, 1, "worker-death", 0.1)
        telemetry.cell_retried(cell, 2, "timeout", 0.2)
        telemetry.cell_retried(("E01", "{}", 5), 1, "worker-death", 0.1)
        wall = [json.loads(line) for line in telemetry.wall_lines()]
        report = SweepTelemetryReport([], wall)
        [storm] = report.retry_storms()
        assert storm["base_seed"] == 4 and storm["retries"] == 2
        assert "worker-death" in storm["reasons"]

    def test_schema_mismatch_reported(self):
        from tussle.obs.report import SweepTelemetryReport
        report = SweepTelemetryReport([{"kind": "meta", "schema": 99}])
        assert any("schema 99" in p for p in report.problems)

    def test_format_and_to_dict(self, tmp_path):
        det_path, _ = sweep_telemetry_files(tmp_path)
        report = build_sweep_report(det_path)
        text = report.format()
        assert "sweep telemetry (schema 1)" in text
        assert "Per-worker utilization" in text
        json.dumps(report.to_dict())  # must not raise


class TestCli:
    def test_report_text(self, tmp_path, capsys):
        path = synthetic_trace(tmp_path)
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "econ.market" in out and "netsim.engine" in out

    def test_report_json(self, tmp_path, capsys):
        path = synthetic_trace(tmp_path)
        assert obs_main(["report", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 1 and payload["events"] == 4

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "tussle.obs:" in capsys.readouterr().err

    def test_no_subcommand_prints_help(self, capsys):
        assert obs_main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_tolerant_flag_salvages_damaged_trace(self, tmp_path, capsys):
        path = tmp_path / "damaged.jsonl"
        path.write_text(
            '{"kind":"event","scope":"s","name":"n","t":1.0}\ngarbage\n')
        assert obs_main(["report", str(path)]) == 2
        capsys.readouterr()
        assert obs_main(["report", str(path), "--tolerant"]) == 0
        out = capsys.readouterr().out
        assert "1 skipped" in out and "Problems (1)" in out

    def test_sweep_report_subcommand(self, tmp_path, capsys):
        det_path, _ = sweep_telemetry_files(tmp_path)
        assert obs_main(["sweep-report", str(det_path)]) == 0
        assert "sweep telemetry" in capsys.readouterr().out
        assert obs_main(["sweep-report", str(det_path),
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["det_counters"]["cells_total"] == 2

    def test_diff_subcommand(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text('{"i":0}\n{"v":"x"}\n')
        b.write_text('{"i":0}\n{"v":"y"}\n')
        assert obs_main(["diff", str(a), str(a)]) == 0
        assert "identical" in capsys.readouterr().out
        assert obs_main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first divergence at record 1" in out
        assert obs_main(["diff", str(a), str(b), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"] == 1

    def test_perf_subcommands(self, tmp_path, capsys, monkeypatch):
        # BENCHMARK.json and the default ledger path resolve from the
        # working directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCHMARK.json").write_text(json.dumps({
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "unit": "s",
                            "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "step_s", "unit": "s",
                           "better": "lower"}]}))

        def results(wall_s):
            paths = []
            for trace, name, value in ((0, "wall_s", wall_s),
                                       (1, "step_s", 0.5)):
                path = tmp_path / f"wall{wall_s}-trace{trace}.txt"
                path.write_text(f"  {name} = {value}\n" + json.dumps({
                    "correct": True, "attempted": 1, "failed": 0,
                    "metrics": {name: {"value": value, "unit": "s"}}}))
                paths.append(str(path))
            return paths

        ledger = tmp_path / "benchmarks" / "history.json"
        assert obs_main(["perf", "--ingest", "w", *results(1.0)]) == 0
        assert "ingested w run 1" in capsys.readouterr().out
        # The same results again are refused; the ledger is unchanged.
        before = ledger.read_text()
        assert obs_main(["perf", "--ingest", "w", *results(1.0)]) == 2
        assert "repeats run 1" in capsys.readouterr().err
        assert ledger.read_text() == before
        assert obs_main(["perf", "--check"]) == 0
        assert "ok" in capsys.readouterr().out
        # A 2x slower wall blocks.
        assert obs_main(["perf", "--ingest", "w", *results(2.0)]) == 0
        assert obs_main(["perf", "--check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: w: wall_s" in out and "REGRESSED" in out
        assert obs_main(["perf"]) == 0
        out = capsys.readouterr().out
        assert "w: run 1 -> run 2" in out and "+100.0%" in out
        assert obs_main(["perf", "--ingest", "w"]) == 2
        assert obs_main(["perf", "--ingest", "v", *results(3.0)]) == 2
        assert ledger.read_text() != before
