"""Aggregation edge cases: the verdict strings CI greps must not drift."""

import math

from tussle.sweep.aggregate import _numeric, aggregate, metric_scalars


def ok_cell(seed, shape_holds=True, checks=None, rows=None):
    return {
        "experiment_id": "E01",
        "params": {},
        "base_seed": seed,
        "seed": seed,
        "status": "ok",
        "result": {
            "shape_holds": shape_holds,
            "checks": checks if checks is not None
            else [{"claim": "prices rise", "holds": shape_holds}],
            "tables": [{
                "title": "market",
                "columns": ["price", "label"],
                "rows": rows if rows is not None
                else [{"price": 1.0 + seed, "label": "x"}],
            }],
        },
        "error": None,
    }


def error_cell(seed):
    return {
        "experiment_id": "E01",
        "params": {},
        "base_seed": seed,
        "seed": seed,
        "status": "error",
        "result": None,
        "error": {"type": "RuntimeError", "message": "boom"},
    }


class TestSingleSeed:
    def test_single_seed_verdict(self):
        document = aggregate([ok_cell(0)])
        [group] = document["groups"]
        assert group["verdict"] == "E01 shape holds on 1/1 seeds"
        assert group["robust"] is True
        assert document["verdicts"] == ["E01 shape holds on 1/1 seeds"]
        # min == median == mean == max with one observation.
        summary = group["metrics"]["market/price"]
        assert summary == {"min": 1.0, "median": 1.0,
                           "mean": 1.0, "max": 1.0}

    def test_single_seed_shape_failure(self):
        [group] = aggregate([ok_cell(0, shape_holds=False)])["groups"]
        assert group["verdict"] == "E01 shape holds on 0/1 seeds"
        assert group["robust"] is False


class TestAllCellsFailed:
    def test_all_failed_verdict_and_no_metrics(self):
        document = aggregate([error_cell(0), error_cell(1)])
        [group] = document["groups"]
        assert group["verdict"] == \
            "E01 shape holds on 0/2 seeds (2 failed)"
        assert group["robust"] is False
        assert group["checks"] == [] and group["metrics"] == {}
        assert group["cells_failed"] == 2

    def test_mixed_failed_and_ok(self):
        [group] = aggregate([ok_cell(0), error_cell(1)])["groups"]
        assert group["verdict"] == \
            "E01 shape holds on 1/2 seeds (1 failed)"
        # A failed cell denies robustness even when every ok cell holds.
        assert group["robust"] is False

    def test_empty_cell_list(self):
        document = aggregate([])
        assert document["groups"] == [] and document["verdicts"] == []
        assert document["robust"] is True  # vacuous, but stable


class TestNanAndMissingMetrics:
    def test_nan_and_inf_rows_are_ignored(self):
        rows = [{"price": 2.0}, {"price": float("nan")},
                {"price": float("inf")}, {"price": None}]
        cell = ok_cell(0, rows=rows)
        assert metric_scalars(cell["result"]) == {"market/price": 2.0}
        [group] = aggregate([cell])["groups"]
        assert group["metrics"]["market/price"]["mean"] == 2.0

    def test_all_nan_column_vanishes_instead_of_poisoning(self):
        cell = ok_cell(0, rows=[{"price": float("nan")}])
        assert metric_scalars(cell["result"]) == {}
        [group] = aggregate([cell])["groups"]
        assert group["metrics"] == {}
        assert group["verdict"] == "E01 shape holds on 1/1 seeds"

    def test_bools_and_strings_are_not_metrics(self):
        cell = ok_cell(0, rows=[{"price": True, "label": "x"}])
        assert metric_scalars(cell["result"]) == {}

    def test_numeric_filter(self):
        assert _numeric(2) == 2.0
        assert _numeric(True) is None
        assert _numeric("3") is None
        assert _numeric(float("nan")) is None
        assert _numeric(float("-inf")) is None
        assert _numeric(math.pi) == math.pi

    def test_metric_present_on_subset_of_seeds(self):
        with_price = ok_cell(0)
        without = ok_cell(1, rows=[{"label": "y"}])
        [group] = aggregate([with_price, without])["groups"]
        # Summary over the seeds that have the metric, not a crash.
        assert group["metrics"]["market/price"]["mean"] == 1.0

    def test_checks_misaligned_across_seeds(self):
        short = ok_cell(0, checks=[{"claim": "a", "holds": True}])
        long = ok_cell(
            1, checks=[{"claim": "a", "holds": True},
                       {"claim": "b", "holds": True}])
        [group] = aggregate([short, long])["groups"]
        # Claims come from the lowest seed; extra checks never crash.
        assert [check["claim"] for check in group["checks"]] == ["a"]
        assert group["checks"][0]["passes"] == 2
