"""Every report field is filled by the layer it describes.

A field that no layer writes prints a number that nothing produced.
This guard builds the two reports the program emits for real runs, an
E01 bench record and the trace report of ``python -m tussle run``, and
requires every field to carry something.
"""

from tussle.__main__ import main
from tussle.experiments import ALL_EXPERIMENTS
from tussle.obs import Metrics, Profiler, observe
from tussle.obs.bench import bench_record
from tussle.obs.report import build_report


def test_every_report_field_is_filled(tmp_path):
    # As benchmarks/conftest.py's run_and_record builds it.
    metrics, profiler = Metrics(), Profiler()
    with observe(metrics=metrics, profiler=profiler):
        with profiler.time("experiment"):
            result = ALL_EXPERIMENTS["E01"]()
    record = bench_record("E01", metrics=metrics, profiler=profiler,
                          result=result).to_dict()
    assert [key for key, value in record.items() if value is None] == []

    trace = tmp_path / "trace.jsonl"
    assert main(["run", "E01", "E04", "X07", "--trace", str(trace)]) == 0
    report = build_report(trace).to_dict()
    empty = [key for key, value in report.items()
             if isinstance(value, list) and not value and key != "problems"]
    assert empty == []
