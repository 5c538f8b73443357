"""Scheduler invariants: deterministic merge, cache behaviour, isolation."""

import pytest

from tussle.canon import canonical_json
from tussle.errors import SweepError
from tussle.experiments.common import ExperimentResult, Table
from tussle.obs import Metrics, observe
from tussle.sweep import (
    InProcessExecutor,
    ResultCache,
    SweepSpec,
    code_fingerprint,
    run_sweep,
)

SMALL_PARAMS = {"n_consumers": 12, "rounds": 5}


def small_spec(ids=("E01",), seeds=(0, 1), grid=None):
    return SweepSpec(
        experiment_ids=list(ids),
        seeds=list(seeds),
        grid=dict(grid or {k: [v] for k, v in SMALL_PARAMS.items()}),
    )


class ShuffledExecutor:
    """Returns worker outputs in an adversarial (non-submission) order."""

    def __init__(self, rotation=3):
        self.rotation = rotation
        self.inner = InProcessExecutor()

    def map(self, tasks):
        outputs = self.inner.map(tasks)
        outputs.reverse()
        cut = self.rotation % len(outputs) if outputs else 0
        return outputs[cut:] + outputs[:cut]


class TestDeterministicMerge:
    def test_merge_order_independent_of_completion_order(self):
        spec = small_spec(seeds=(0, 1, 2))
        ordered = run_sweep(spec, executor=InProcessExecutor())
        shuffled = run_sweep(spec, executor=ShuffledExecutor())
        assert canonical_json(ordered.cells) == canonical_json(shuffled.cells)

    def test_merged_cells_sorted_by_identity(self):
        spec = small_spec(ids=("E10", "E01"), seeds=(1, 0), grid={})
        report = run_sweep(spec, executor=ShuffledExecutor(rotation=1))
        identities = [(c["experiment_id"], c["base_seed"])
                      for c in report.cells]
        assert identities == sorted(identities)

    def test_executor_losing_cells_is_an_error(self):
        class LossyExecutor:
            def map(self, tasks):
                return InProcessExecutor().map(tasks[:-1])

        with pytest.raises(SweepError):
            run_sweep(small_spec(), executor=LossyExecutor())

    def test_scheduler_metrics_instrumented(self):
        metrics = Metrics()
        with observe(metrics=metrics):
            run_sweep(small_spec(seeds=(0,)))
        counters = metrics.snapshot()["sweep.scheduler"]["counters"]
        assert counters["cells_total"] == 1
        assert counters["cells_dispatched"] == 1
        assert counters["cells_cached"] == 0
        assert counters["cells_failed"] == 0


class TestCache:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        spec = small_spec(seeds=(0, 1))
        first_cache = ResultCache(tmp_path, fingerprint="fp-a")
        first = run_sweep(spec, cache=first_cache)
        assert first.stats["cells_dispatched"] == 2

        second_cache = ResultCache(tmp_path, fingerprint="fp-a")

        class ExplodingExecutor:
            def map(self, tasks):
                raise AssertionError("cache should have satisfied every cell")

        second = run_sweep(spec, cache=second_cache,
                           executor=ExplodingExecutor())
        assert second.stats["cells_cached"] == 2
        assert canonical_json(first.cells) == canonical_json(second.cells)

    def test_fingerprint_change_invalidates(self, tmp_path):
        spec = small_spec(seeds=(0,))
        run_sweep(spec, cache=ResultCache(tmp_path, fingerprint="fp-a"))
        stale = run_sweep(spec, cache=ResultCache(tmp_path, fingerprint="fp-b"))
        assert stale.stats["cells_dispatched"] == 1
        assert stale.stats["cells_cached"] == 0

    def test_code_fingerprint_tracks_source_changes(self, tmp_path):
        module = tmp_path / "mod.py"
        module.write_text("X = 1\n")
        before = code_fingerprint(tmp_path)
        assert before == code_fingerprint(tmp_path)
        module.write_text("X = 2\n")
        assert code_fingerprint(tmp_path) != before

    def test_failed_cells_are_not_cached(self, tmp_path,
                                          register_experiment):
        def explode(seed=0):
            raise RuntimeError("boom")

        register_experiment("Z99", explode)
        spec = SweepSpec(experiment_ids=["Z99"], seeds=[0], grid={})
        cache = ResultCache(tmp_path, fingerprint="fp-a")
        report = run_sweep(spec, cache=cache)
        assert report.stats["cells_failed"] == 1
        rerun = run_sweep(spec, cache=ResultCache(tmp_path, fingerprint="fp-a"))
        assert rerun.stats["cells_cached"] == 0
        assert rerun.stats["cells_dispatched"] == 1

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        spec = small_spec(seeds=(0,))
        cache = ResultCache(tmp_path, fingerprint="fp-a")
        run_sweep(spec, cache=cache)
        for path in tmp_path.rglob("*.json"):
            path.write_text("{ not json")
        rerun = run_sweep(spec, cache=ResultCache(tmp_path, fingerprint="fp-a"))
        assert rerun.stats["cells_dispatched"] == 1


class TestFailureIsolation:
    def test_one_raising_cell_marks_only_itself_failed(self,
                                                        register_experiment):
        def fragile(seed=0, parity=0):
            if parity:
                raise RuntimeError("diverged")
            result = ExperimentResult(experiment_id="Z98", title="t",
                                      paper_claim="c")
            table = Table("z", ["v"])
            table.add_row(v=float(seed % 97))
            result.tables.append(table)
            result.add_check("ok", True)
            return result

        register_experiment("Z98", fragile)
        spec = SweepSpec(experiment_ids=["Z98"], seeds=[0],
                         grid={"parity": [0, 1]})
        report = run_sweep(spec)
        assert len(report.cells) == 2
        statuses = {c["params"]["parity"]: c["status"] for c in report.cells}
        assert statuses == {0: "ok", 1: "error"}
        failed = report.failed
        assert len(failed) == 1
        assert failed[0]["error"]["type"] == "RuntimeError"
        assert not report.ok

    def test_unknown_experiment_is_a_failed_cell(self):
        spec = SweepSpec(experiment_ids=["NOPE"], seeds=[0], grid={})
        report = run_sweep(spec)
        assert report.stats["cells_failed"] == 1
        assert report.cells[0]["error"]["type"] == "SweepError"


class TestSpecValidation:
    def test_duplicate_seeds_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(experiment_ids=["E01"], seeds=[0, 0], grid={})

    def test_empty_spec_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(experiment_ids=[], seeds=[0], grid={})
        with pytest.raises(SweepError):
            SweepSpec(experiment_ids=["E01"], seeds=[], grid={})

    def test_empty_grid_axis_rejected(self):
        spec = SweepSpec(experiment_ids=["E01"], seeds=[0],
                         grid={"rounds": []})
        with pytest.raises(SweepError):
            spec.cells()
