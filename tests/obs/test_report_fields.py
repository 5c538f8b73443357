"""Every report field is filled by the layer it describes.

A field that no layer writes prints a number that nothing produced.
This guard builds the trace report of ``python -m tussle run`` for a
real run and requires every field to carry something.
"""

from tussle.__main__ import main
from tussle.obs.report import build_report


def test_every_report_field_is_filled(tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["run", "E01", "E04", "X07", "--trace", str(trace)]) == 0
    report = build_report(trace).to_dict()
    empty = [key for key, value in report.items()
             if isinstance(value, list) and not value and key != "problems"]
    assert empty == []
