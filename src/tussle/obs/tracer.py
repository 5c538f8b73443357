"""Structured, deterministic tracing: spans and events on simulated time.

Every record is stamped with a *logical* time supplied by the caller —
a round index, a convergence iteration or a registry op-sequence —
never the host clock, so a trace taken at a fixed seed is byte-for-byte
reproducible across runs and machines.  Wall-clock timing lives in one
quarantined place, :mod:`tussle.obs.profiler`, and never enters a trace.

Records are serialized as JSON Lines with sorted keys and compact
separators, which makes the reproducibility contract checkable with a
plain byte comparison of two trace files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

__all__ = ["Span", "Tracer", "NullTracer"]


class Span:
    """An open interval of logical time inside one subsystem scope.

    Created by :meth:`Tracer.begin`; the caller closes it with
    :meth:`end`, at which point one ``span`` record is appended to the
    tracer.  Spans may also be used as context managers when the end
    time equals the begin time (pure grouping).
    """

    __slots__ = ("_tracer", "seq", "scope", "name", "t0", "fields", "closed")

    def __init__(self, tracer: "Tracer", seq: int, scope: str, name: str,
                 t0: float, fields: Dict[str, Any]):
        self._tracer = tracer
        self.seq = seq
        self.scope = scope
        self.name = name
        self.t0 = float(t0)
        self.fields = fields
        self.closed = False

    def end(self, t1: float, **fields: Any) -> None:
        """Close the span at logical time ``t1``; extra fields merge in."""
        if self.closed:
            return
        self.closed = True
        merged = dict(self.fields)
        merged.update(fields)
        self._tracer._append({
            "kind": "span",
            "seq": self.seq,
            "scope": self.scope,
            "name": self.name,
            "t0": self.t0,
            "t1": float(t1),
            "fields": merged,
        })

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end(self.t0)


class _NullSpan:
    """The span :class:`NullTracer` hands out: every operation is a no-op."""

    __slots__ = ()

    def end(self, t1: float, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span/event records in memory and serializes them to JSONL.

    The ``enabled`` class attribute is the fast-path switch instrumented
    code checks once at construction time: when it is False (the
    :class:`NullTracer` default) hot loops skip tracing entirely, which
    is what keeps the off-by-default overhead within budget.
    """

    enabled = True

    def __init__(self) -> None:
        self._records: List[Dict[str, Any]] = []
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def event(self, scope: str, name: str, t: float, **fields: Any) -> None:
        """Record one instantaneous event at logical time ``t``."""
        self._append({
            "kind": "event",
            "seq": next(self._seq),
            "scope": scope,
            "name": name,
            "t": float(t),
            "fields": fields,
        })

    def begin(self, scope: str, name: str, t0: float,
              **fields: Any) -> Span:
        """Open a span at logical time ``t0``; close it with ``Span.end``."""
        return Span(self, next(self._seq), scope, name, t0, fields)

    def _append(self, record: Dict[str, Any]) -> None:
        self._records.append(record)

    # ------------------------------------------------------------------
    # Access & export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """The raw records, in emission order."""
        return list(self._records)

    def scopes(self) -> List[str]:
        """Sorted distinct scopes seen so far."""
        return sorted({r["scope"] for r in self._records})

    def iter_jsonl(self) -> Iterator[str]:
        """One deterministic JSON line per record (sorted keys, compact)."""
        for record in self._records:
            yield json.dumps(record, sort_keys=True, separators=(",", ":"))

    def to_jsonl(self) -> str:
        lines = list(self.iter_jsonl())
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """Write every record to ``path`` as JSON Lines; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_jsonl(), encoding="utf-8")
        return target

    def __len__(self) -> int:
        return len(self._records)


class NullTracer(Tracer):
    """The default tracer: records nothing, costs (almost) nothing.

    Instrumented code checks ``tracer.enabled`` once and caches ``None``
    instead of the tracer, so per-event work reduces to a single
    ``is not None`` test.  The no-op methods below are for callers that
    hold a tracer reference without checking the flag.
    """

    enabled = False

    def event(self, scope: str, name: str, t: float, **fields: Any) -> None:
        pass

    def begin(self, scope: str, name: str, t0: float,
              **fields: Any) -> Span:
        return _NULL_SPAN  # type: ignore[return-value]
