"""Every experiment must reproduce the paper's qualitative shape.

These are the repository's headline assertions: each ``run_eNN`` returns
explicit shape checks against the claims of the paper, and all of them
must hold.
"""

import pytest

from tussle.errors import ExperimentError
from tussle.experiments import ALL_EXPERIMENTS
from tussle.experiments.common import ExperimentResult, ShapeCheck, Table
from tussle.lint.seedcheck import fingerprint


@pytest.fixture(scope="module")
def results():
    return {eid: fn() for eid, fn in ALL_EXPERIMENTS.items()}


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_shape_holds(results, experiment_id):
    result = results[experiment_id]
    failing = [c for c in result.checks if not c.holds]
    assert result.shape_holds, (
        f"{experiment_id} failed checks: "
        + "; ".join(f"{c.claim} ({c.detail})" for c in failing)
    )


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_result_is_well_formed(results, experiment_id):
    result = results[experiment_id]
    assert isinstance(result, ExperimentResult)
    assert result.experiment_id == experiment_id
    assert result.paper_claim
    assert result.tables, "every experiment reports at least one table"
    assert result.checks, "every experiment asserts at least one shape check"
    for table in result.tables:
        assert len(table) > 0


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_format_renders(results, experiment_id):
    text = results[experiment_id].format()
    assert experiment_id in text
    assert "HOLDS" in text
    assert "FAILS" not in text


def test_experiment_registry_complete():
    expected = (
        [f"E{i:02d}" for i in range(1, 13)]
        + ["L01", "L02"]
        + ["N01"]
        + ["P01", "P02"]
        + ["R01", "R02"]
        + ["T01", "T02"]
        + ["X01", "X02", "X03", "X04", "X05", "X06", "X07"]
    )
    assert sorted(ALL_EXPERIMENTS) == expected


def test_experiments_deterministic():
    """Re-running an experiment yields identical tables."""
    from tussle.experiments import run_e01

    first = run_e01()
    second = run_e01()
    assert first.tables[0].rows == second.tables[0].rows


def test_e01_zero_rounds_fails_the_shape_instead_of_raising():
    """No consumer-rounds means a switch rate of 0.0, not a division by
    zero; the lock-in shape then does not hold."""
    from tussle.experiments import run_e01

    result = run_e01(rounds=0)
    assert not result.shape_holds
    assert result.tables[0].column("switch_rate") == [0.0] * 4


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_double_run_bit_identical(results, experiment_id):
    """Determinism contract: same seed, bit-identical result (all tables,
    every cell, every shape-check verdict)."""
    rerun = ALL_EXPERIMENTS[experiment_id]()
    assert fingerprint(results[experiment_id]) == fingerprint(rerun)


@pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
def test_entry_point_accepts_seed(experiment_id):
    """Every registered experiment exposes the run(seed=...) contract."""
    import inspect

    signature = inspect.signature(ALL_EXPERIMENTS[experiment_id])
    assert "seed" in signature.parameters


class TestTableHarness:
    def test_unknown_column_rejected(self):
        table = Table("t", ["a"])
        with pytest.raises(Exception):
            table.add_row(b=1)

    def test_unknown_column_is_experiment_error_naming_columns(self):
        table = Table("t", ["a"])
        with pytest.raises(ExperimentError) as excinfo:
            table.add_row(b=1, c=2)
        assert "['b', 'c']" in str(excinfo.value)

    def test_unknown_column_extraction_is_experiment_error(self):
        table = Table("t", ["a"])
        with pytest.raises(ExperimentError) as excinfo:
            table.column("missing")
        assert "missing" in str(excinfo.value)

    def test_empty_table_column_extraction(self):
        table = Table("t", ["a"])
        assert table.column("a") == []
        assert len(table) == 0

    def test_empty_table_still_formats_header(self):
        table = Table("empty", ["col_a", "col_b"])
        text = table.format()
        assert "empty" in text
        assert "col_a" in text

    def test_cell_formatting_conventions(self):
        table = Table("t", ["v"])
        table.add_row(v=True)
        table.add_row(v=None)
        table.add_row(v=0.12345)
        text = table.format()
        assert "yes" in text
        assert "-" in text
        assert "0.123" in text

    def test_column_extraction(self):
        table = Table("t", ["a", "b"])
        table.add_row(a=1, b=2)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2, None]

    def test_format_alignment(self):
        table = Table("title", ["name", "value"])
        table.add_row(name="x", value=1.5)
        text = table.format()
        assert "title" in text
        assert "1.500" in text

    def test_needs_columns(self):
        with pytest.raises(Exception):
            Table("t", [])


class TestMonotoneHelpers:
    def test_monotone_decreasing(self):
        from tussle.experiments.common import monotone_decreasing

        assert monotone_decreasing([3.0, 2.0, 2.0, 1.0])
        assert not monotone_decreasing([1.0, 2.0])
        assert monotone_decreasing([3.0, 2.0, 1.0], strict=True)
        assert not monotone_decreasing([3.0, 2.0, 2.0], strict=True)
        assert monotone_decreasing([])
        assert monotone_decreasing([1.0])

    def test_monotone_increasing(self):
        from tussle.experiments.common import monotone_increasing

        assert monotone_increasing([1.0, 2.0, 2.0, 3.0])
        assert not monotone_increasing([2.0, 1.0])
        assert monotone_increasing([1.0, 2.0], strict=True)
        assert not monotone_increasing([1.0, 1.0], strict=True)

    def test_shape_check_records(self):
        from tussle.experiments.common import ExperimentResult

        result = ExperimentResult(experiment_id="T00", title="t",
                                  paper_claim="c")
        result.add_check("passes", True, detail="d")
        result.add_check("fails", False)
        assert not result.shape_holds
        text = result.format()
        assert "[HOLDS] passes" in text
        assert "[FAILS] fails" in text

    def test_failing_check_detail_is_rendered(self):
        result = ExperimentResult(experiment_id="T00", title="t",
                                  paper_claim="c")
        result.add_check("claim", False, detail="expected up, measured down")
        text = result.format()
        assert "[FAILS] claim" in text
        assert "expected up, measured down" in text

    def test_empty_result_shape_holds_vacuously(self):
        result = ExperimentResult(experiment_id="T00", title="t",
                                  paper_claim="c")
        assert result.shape_holds
        assert result.checks == []

    def test_shape_check_dataclass_fields(self):
        check = ShapeCheck(claim="c", holds=False)
        assert check.detail == ""
        assert not check.holds
