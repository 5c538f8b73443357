"""Metrics registry: instruments, scopes, and snapshot stability."""

import json

from tussle.obs import Metrics, NullMetrics


class TestInstruments:
    def test_counter(self):
        counter = Metrics().scope("s").counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set(self):
        gauge = Metrics().scope("s").gauge("depth")
        gauge.set(3.0)
        assert gauge.value == 3.0

    def test_histogram_summary(self):
        histogram = Metrics().scope("s").histogram("price")
        for value in (2.0, 4.0, 9.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary == {"count": 3, "total": 15.0, "min": 2.0,
                           "max": 9.0, "mean": 5.0}

    def test_empty_histogram_mean_is_zero(self):
        assert Metrics().scope("s").histogram("h").mean == 0.0


class TestRegistry:
    def test_instruments_are_get_or_create(self):
        scope = Metrics().scope("s")
        assert scope.counter("c") is scope.counter("c")
        assert scope.gauge("g") is scope.gauge("g")
        assert scope.histogram("h") is scope.histogram("h")

    def test_scopes_are_get_or_create(self):
        metrics = Metrics()
        assert metrics.scope("a") is metrics.scope("a")

    def test_snapshot_nested_and_sorted(self):
        metrics = Metrics()
        metrics.scope("zeta").counter("n").inc()
        metrics.scope("alpha").gauge("g").set(1.0)
        metrics.scope("alpha").counter("c").inc(2)
        snapshot = metrics.snapshot()
        assert list(snapshot) == ["alpha", "zeta"]
        assert snapshot["alpha"] == {"counters": {"c": 2},
                                     "gauges": {"g": 1.0}}
        assert snapshot["zeta"] == {"counters": {"n": 1}}

    def test_snapshot_is_json_serialisable_and_stable(self):
        metrics = Metrics()
        metrics.scope("s").histogram("h").observe(1.5)
        first = json.dumps(metrics.snapshot(), sort_keys=True)
        second = json.dumps(metrics.snapshot(), sort_keys=True)
        assert first == second

    def test_empty_scope_snapshot_is_empty(self):
        metrics = Metrics()
        metrics.scope("quiet")
        assert metrics.snapshot() == {"quiet": {}}


class TestNullMetrics:
    def test_disabled_flag(self):
        assert NullMetrics().enabled is False
        assert Metrics().enabled is True

    def test_still_usable_when_held_directly(self):
        # Callers that skip the `enabled` check must not crash.
        metrics = NullMetrics()
        metrics.scope("s").counter("c").inc()
        assert metrics.snapshot() == {"s": {"counters": {"c": 1}}}
