"""Streaming aggregation: the metric summary and the running-verdict folder."""

import bisect
import random
import statistics

import pytest

from tussle.canon import canonical_json
from tussle.errors import SweepError
from tussle.sweep import (
    InProcessExecutor,
    StreamingAggregator,
    SweepSpec,
    aggregate,
    run_sweep,
)
from tussle.sweep.progress import summary

SPEC = SweepSpec(
    experiment_ids=["E01", "E10"],
    seeds=[0, 1, 2],
    grid={"rounds": [6]},
)


def folded(values):
    """A group's per-metric list: each value insorted as its cell lands."""
    ordered = []
    for value in values:
        bisect.insort(ordered, value)
    return ordered


class TestSummary:
    def test_min_median_mean_max(self):
        values = [3.0, 1.0, 2.0, 2.0, 5.0]
        stats = summary(folded(values))
        assert stats["min"] == 1.0 and stats["max"] == 5.0
        assert stats["mean"] == pytest.approx(statistics.mean(values))
        assert stats["median"] == statistics.median(values)

    def test_insertion_order_insensitive(self):
        rng = random.Random(7)
        values = [rng.uniform(-50, 50) for _ in range(101)]
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert folded(values) == folded(shuffled)
        assert canonical_json(summary(folded(values))) == \
            canonical_json(summary(folded(shuffled)))

    def test_median_matches_statistics_exactly(self):
        rng = random.Random(3)
        for n in (1, 2, 5, 100, 101):
            values = [rng.uniform(0, 10) for _ in range(n)]
            assert summary(folded(values))["median"] == \
                statistics.median(values), n


class TestStreamingAggregator:
    def payloads(self):
        return run_sweep(SPEC, executor=InProcessExecutor()).cells

    def test_snapshot_matches_batch_byte_for_byte(self):
        cells = self.payloads()
        streaming = StreamingAggregator()
        for payload in cells:
            streaming.fold(payload)
        assert canonical_json(streaming.snapshot()) == \
            canonical_json(aggregate(cells))

    def test_fold_order_does_not_matter(self):
        cells = self.payloads()
        shuffled = list(cells)
        random.Random(11).shuffle(shuffled)
        streaming = StreamingAggregator()
        for payload in shuffled:
            streaming.fold(payload)
        assert canonical_json(streaming.snapshot()) == \
            canonical_json(aggregate(cells))

    def test_running_verdicts_update_per_fold(self):
        cells = [c for c in self.payloads() if c["experiment_id"] == "E01"]
        streaming = StreamingAggregator()
        group = streaming.fold(cells[0])
        assert group.verdict() == "E01 shape holds on 1/1 seeds"
        assert group.verdict(total_seeds=3) == \
            "E01 shape holds on 1/3 seeds"
        streaming.fold(cells[1])
        assert streaming.verdicts() == ["E01 shape holds on 2/2 seeds"]
        assert streaming.cells_seen == 2

    def test_failed_cells_fold_into_failed_seeds(self):
        cells = self.payloads()
        broken = dict(cells[0])
        broken["status"] = "error"
        streaming = StreamingAggregator()
        group = streaming.fold(broken)
        assert group.failed_seeds == [broken["base_seed"]]
        assert "(1 failed)" in group.verdict()
        snapshot = streaming.snapshot()
        assert snapshot["groups"][0]["cells_failed"] == 1
        assert snapshot["robust"] is False

    def test_duplicate_seed_rejected(self):
        cells = self.payloads()
        streaming = StreamingAggregator()
        streaming.fold(cells[0])
        with pytest.raises(SweepError, match="folded twice"):
            streaming.fold(cells[0])

    def test_streaming_failed_matches_batch(self):
        cells = self.payloads()
        broken = [dict(c) for c in cells]
        broken[1]["status"] = "error"
        broken[1] = {**broken[1], "result": None,
                     "error": {"type": "RuntimeError", "message": "boom"}}
        streaming = StreamingAggregator()
        for payload in broken:
            streaming.fold(payload)
        assert canonical_json(streaming.snapshot()) == \
            canonical_json(aggregate(broken))
