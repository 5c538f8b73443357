"""Dynamic seed-check harness: fingerprints, double runs, divergence."""

import pytest

from tussle.errors import LintError
from tussle.experiments.common import ExperimentResult, Table
from tussle.lint.seedcheck import (
    SeedCheckOutcome,
    fingerprint,
    format_outcomes,
    main,
    run_seedcheck,
)


def make_result(cell_value=1.0, holds=True):
    table = Table("t", ["metric", "value"])
    table.add_row(metric="m", value=cell_value)
    result = ExperimentResult(experiment_id="T00", title="t",
                              paper_claim="c", tables=[table])
    result.add_check("claim", holds)
    return result


class TestFingerprint:
    def test_identical_results_match(self):
        assert fingerprint(make_result()) == fingerprint(make_result())

    def test_cell_difference_detected(self):
        assert fingerprint(make_result(1.0)) != fingerprint(make_result(1.0 + 1e-12))

    def test_verdict_difference_detected(self):
        assert fingerprint(make_result(holds=True)) != \
            fingerprint(make_result(holds=False))

    def test_container_cells_are_hashable(self):
        table = Table("t", ["value"])
        table.add_row(value={"k": [1, 2]})
        result = ExperimentResult(experiment_id="T00", title="t",
                                  paper_claim="c", tables=[table])
        hash(fingerprint(result))  # must not raise


class TestRunSeedcheck:
    def test_sample_experiments_are_deterministic(self):
        outcomes = run_seedcheck(["E01", "X05"])
        assert [o.experiment_id for o in outcomes] == ["E01", "X05"]
        assert all(o.deterministic for o in outcomes)
        assert all(o.shape_holds for o in outcomes)

    def test_explicit_seed_is_threaded(self):
        outcomes = run_seedcheck(["E12"], seed=42)
        assert outcomes[0].seed == 42
        assert outcomes[0].deterministic

    def test_default_seed_is_reported(self):
        outcomes = run_seedcheck(["E01"])
        assert outcomes[0].seed == 7  # run_e01's own default

    def test_unknown_experiment_rejected(self):
        with pytest.raises(LintError):
            run_seedcheck(["E99"])

    def test_needs_two_runs(self):
        with pytest.raises(LintError):
            run_seedcheck(["E01"], runs=1)


class TestReporting:
    def test_format_flags_divergence(self):
        outcomes = [
            SeedCheckOutcome("E01", 7, True, True),
            SeedCheckOutcome("E02", 11, False, True,
                             detail="first divergence in tables"),
        ]
        text = format_outcomes(outcomes)
        assert "E01: DETERMINISTIC" in text
        assert "E02: DIVERGENT" in text
        assert "1 divergent" in text

    def test_cli_runs_selected_experiment(self, capsys):
        assert main(["E12", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "E12: DETERMINISTIC (seed=5)" in out

    def test_cli_json(self, capsys):
        import json
        assert main(["E12", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["experiment"] == "E12"
        assert payload[0]["deterministic"] is True


class TestDivergenceDetail:
    def test_detail_names_the_divergent_row(self, register_experiment):
        """A cell that changes on the second run is pinned to its row."""
        calls = []

        def flaky(seed=0):
            calls.append(seed)
            table = Table("t", ["metric", "value"])
            table.add_row(metric="a", value=1.0)
            table.add_row(metric="b", value=2.0 if len(calls) == 1 else 2.5)
            result = ExperimentResult(experiment_id="T00", title="t",
                                      paper_claim="c", tables=[table])
            result.add_check("claim", True)
            return result

        register_experiment("T00", flaky)
        [outcome] = run_seedcheck(["T00"])
        assert not outcome.deterministic
        assert "table 't' row 1" in outcome.detail
        assert "value" in outcome.detail
        assert "metric" not in outcome.detail
        assert "T00: DIVERGENT" in format_outcomes([outcome])

    def test_detail_survives_values_json_cannot_hold(self, register_experiment):
        calls = []

        def flaky(seed=0):
            calls.append(seed)
            table = Table("t", ["value", "obj"])
            table.add_row(value=float("inf"), obj=complex(1, 2))
            result = ExperimentResult(experiment_id="T00", title="t",
                                      paper_claim="c", tables=[table])
            result.add_check("claim", len(calls) == 1)
            return result

        register_experiment("T00", flaky)
        [outcome] = run_seedcheck(["T00"])
        assert not outcome.deterministic
        assert "check 'claim'" in outcome.detail
        assert "holds" in outcome.detail
