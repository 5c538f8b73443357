"""Metrics registry: named counters, gauges and histograms per subsystem.

Instruments are deterministic by construction — they only aggregate
values the simulation itself computed (event counts, integrity levels,
iteration totals), never wall-clock time — so a metrics snapshot taken
at a fixed seed is reproducible and safe to embed in an
:class:`~tussle.experiments.common.ExperimentResult`.

Scopes name the subsystem that owns the instruments
(``"core.simulator"``, ``"econ.market"``, ...); the snapshot is a nested
dict keyed scope → instrument kind → name, with every level sorted so
serializations are stable.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsScope", "Metrics",
           "NullMetrics"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values: count/total/min/max."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsScope:
    """All instruments belonging to one subsystem."""

    __slots__ = ("name", "_counters", "_gauges", "_histograms")

    def __init__(self, name: str):
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self._counters:
            data["counters"] = {n: c.value
                                for n, c in sorted(self._counters.items())}
        if self._gauges:
            data["gauges"] = {n: g.value
                              for n, g in sorted(self._gauges.items())}
        if self._histograms:
            data["histograms"] = {n: h.summary()
                                  for n, h in sorted(self._histograms.items())}
        return data


class Metrics:
    """Registry of per-subsystem :class:`MetricsScope` objects.

    Like the tracer, ``enabled`` is the construction-time switch: when
    False (:class:`NullMetrics`, the default) instrumented code caches
    ``None`` and the hot path pays one ``is not None`` test.
    """

    enabled = True

    def __init__(self) -> None:
        self._scopes: Dict[str, MetricsScope] = {}

    def scope(self, name: str) -> MetricsScope:
        existing = self._scopes.get(name)
        if existing is None:
            existing = self._scopes[name] = MetricsScope(name)
        return existing

    def scopes(self) -> Dict[str, MetricsScope]:
        return dict(self._scopes)

    def snapshot(self) -> Dict[str, Any]:
        """Nested scope → instruments dict, sorted at every level."""
        return {name: scope.snapshot()
                for name, scope in sorted(self._scopes.items())}


class NullMetrics(Metrics):
    """Default registry: marks observability as off."""

    enabled = False
