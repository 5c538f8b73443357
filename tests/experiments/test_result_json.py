"""Edge cases for the ExperimentResult/Table JSON wire format.

The sweep cache writes each result payload as canonical JSON and serves
it back with ``json.loads``; perfbench pins ``to_json``'s sha256.  Both
depend on the canonical text being bit-stable and lossless, including
on the awkward corners: ``None`` cells, bool cells (which must not
decay to ints), empty tables, and float cells whose shortest repr
carries many digits.
"""

import json
import math

import pytest

from tussle.errors import ExperimentError
from tussle.experiments.common import (
    ExperimentResult,
    Table,
    canonical_json,
)


def round_trip(table):
    """The table as the sweep cache serves it back."""
    return json.loads(canonical_json(table.to_dict()))


def column(wire, name):
    return [row[name] for row in wire["rows"]]


class TestTableEdgeCases:
    def test_empty_table_round_trips(self):
        table = Table("empty", ["a", "b"])
        revived = round_trip(table)
        assert canonical_json(revived) == canonical_json(table.to_dict())
        assert revived == {"title": "empty", "columns": ["a", "b"],
                           "rows": []}

    def test_none_cells_survive_explicitly(self):
        table = Table("gaps", ["x", "y"])
        table.add_row(x=1)          # y omitted -> serialised as null
        table.add_row(x=None, y=2)  # explicit None
        revived = round_trip(table)
        assert column(revived, "y") == [None, 2]
        assert column(revived, "x") == [1, None]
        assert canonical_json(revived) == canonical_json(table.to_dict())

    def test_bool_cells_keep_their_type(self):
        table = Table("flags", ["ok"])
        table.add_row(ok=True)
        table.add_row(ok=False)
        revived = round_trip(table)
        assert column(revived, "ok") == [True, False]
        assert all(isinstance(v, bool) for v in column(revived, "ok"))

    def test_float_cells_are_bit_exact(self):
        awkward = [0.1 + 0.2, 1e-17, math.pi, -0.0, 123456789.123456789]
        table = Table("floats", ["v"])
        for value in awkward:
            table.add_row(v=value)
        revived = round_trip(table)
        # Bit-equality, not approximate: compare IEEE-754 payloads.
        packed = [math.copysign(1.0, v) if v == 0 else v
                  for v in column(revived, "v")]
        expected = [math.copysign(1.0, v) if v == 0 else v for v in awkward]
        assert packed == expected
        assert canonical_json(revived) == canonical_json(table.to_dict())

    def test_nan_cell_rejected_at_serialisation(self):
        table = Table("bad", ["v"])
        table.add_row(v=float("nan"))
        with pytest.raises(ExperimentError):
            ExperimentResult("EXX", "bad", "no NaN", tables=[table]).to_json()

    def test_json_is_canonical_bytes(self):
        table = Table("t", ["b", "a"])
        table.add_row(b=1, a=2)
        text = canonical_json(table.to_dict())
        assert text == canonical_json(json.loads(text))
        assert "\n" not in text and ": " not in text


class TestExperimentResultEdgeCases:
    def make_result(self, **overrides):
        result = ExperimentResult(experiment_id="EXX", title="edge",
                                  paper_claim="claims survive the wire",
                                  **overrides)
        return result

    def test_result_with_no_tables_or_checks(self):
        result = self.make_result()
        revived = json.loads(result.to_json())
        assert canonical_json(revived) == result.to_json()
        assert revived["tables"] == [] and revived["checks"] == []
        assert revived["shape_holds"] is True  # vacuously

    def test_result_with_empty_table_and_failed_check(self):
        result = self.make_result(tables=[Table("empty", ["c"])])
        result.add_check("never holds", False, detail="by construction")
        revived = json.loads(result.to_json())
        assert revived["shape_holds"] is False
        assert revived["checks"][0]["detail"] == "by construction"
        assert canonical_json(revived) == result.to_json()

    def test_metrics_side_channel_round_trips(self):
        result = self.make_result(metrics={"counters": {"steps": 3}})
        revived = json.loads(result.to_json())
        assert revived["metrics"] == {"counters": {"steps": 3}}

    def test_absent_metrics_stay_absent(self):
        result = self.make_result()
        assert "metrics" not in json.loads(result.to_json())
