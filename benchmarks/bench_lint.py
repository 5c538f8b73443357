"""Lint benchmark: one full-tree ``run_lint`` over ``src/tussle``.

Times the whole analyzer as CI runs it — one parse per file, the D/E/X
rules, flow-summary extraction, linking, the F rules and the
suppression audit — and records the best of :data:`ROUNDS` rounds under
the ``LINT`` id in ``benchmarks/results/bench_lint.json``, so one GC
pause cannot fake (or mask) a regression in ``obs perf --check``.  The
shipped tree must come out clean.
"""

import pathlib

import pytest

from tussle.lint import run_lint
from tussle.obs import Profiler
from tussle.obs.bench import bench_record, write_bench_record

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "tussle"

ROUNDS = 3


@pytest.mark.skipif(not PACKAGE_DIR.is_dir(),
                    reason="source checkout layout required")
def test_full_tree_lint(results_dir):
    profiler = Profiler()
    for _ in range(ROUNDS):
        with profiler.time("lint"):
            report = run_lint([PACKAGE_DIR])

    record = bench_record(
        "LINT", profiler=profiler, timing_key="lint",
        files_scanned=report.files_scanned,
        kernel_candidates=len(report.kernel_candidates),
    )
    write_bench_record(results_dir, record)

    offenders = "\n".join(f.format() for f in report.active)
    assert report.clean, f"lint findings in shipped tree:\n{offenders}"
