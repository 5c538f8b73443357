"""Tests for the ``python -m tussle`` command-line interface."""

import json

import pytest

from tussle.__main__ import build_parser, main


class TestCli:
    def test_list_shows_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for identifier in ("E01", "E12", "X01", "X05"):
            assert identifier in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "E07"]) == 0
        out = capsys.readouterr().out
        assert "E07" in out
        assert "HOLDS" in out
        assert "FAILS" not in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "e07"]) == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E99"])

    def test_summary_runs_everything(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert out.count("HOLDS") == 28

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E01", "E02"])
        assert args.command == "run"
        assert args.experiments == ["E01", "E02"]
        assert args.trace is None
        assert args.as_json is False


class TestRunTraceAndJson:
    def test_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "E01", "--trace", str(trace)]) == 0
        assert "trace written to" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines
        scopes = {json.loads(line)["scope"] for line in lines}
        assert {"experiments", "econ.market", "netsim.addressing"} <= scopes

    def test_trace_is_byte_identical_across_runs(self, tmp_path, capsys):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["run", "E01", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["run", "E07", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] == []
        (result,) = payload["results"]
        assert result["experiment_id"] == "E07"
        assert result["shape_holds"] is True
        assert result["tables"] and result["tables"][0]["rows"]
        assert all(check["holds"] for check in result["checks"])

    def test_json_includes_metrics_snapshot(self, capsys):
        assert main(["run", "E01", "--json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert "econ.market" in result["metrics"]

    def test_json_and_trace_compose(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "E07", "--json", "--trace", str(trace)]) == 0
        json.loads(capsys.readouterr().out)  # stdout stays pure JSON
        assert trace.exists()


class TestSweepFlagValidation:
    """Out-of-range sweep flags are usage errors (exit 2), not runs."""

    @staticmethod
    def usage_error(capsys, *flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "E01", "--seeds", "1", *flags])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        assert "argument --jobs: must be >= 1" in self.usage_error(
            capsys, "--jobs", jobs)

    @pytest.mark.parametrize("timeout", ["0", "-1", "inf"])
    def test_timeout_not_positive_rejected(self, capsys, timeout):
        assert "argument --timeout: must be > 0" in self.usage_error(
            capsys, "--timeout", timeout)

    def test_negative_retries_rejected(self, capsys):
        assert "argument --retries: must be >= 0" in self.usage_error(
            capsys, "--retries", "-1")
