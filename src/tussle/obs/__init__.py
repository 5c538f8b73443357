"""tussle.obs: deterministic-safe observability for the simulation stack.

The paper's central method is *watching the tussle unfold* — moves,
counter-moves, who controls what at each instant.  This subsystem makes
the simulation observable without compromising the determinism contract
(DESIGN.md, "Determinism contract"):

``Tracer``
    Span/event records stamped with *logical* time (round indices,
    convergence iterations, registry op-sequences) — never the host
    clock — so a trace at a fixed seed is byte-for-byte reproducible.
``Metrics``
    Named counters/gauges/histograms per subsystem scope; snapshots are
    deterministic and embeddable in an ``ExperimentResult``.
``Profiler``
    The one sanctioned wall-clock consumer (allowlisted in
    ``tussle.lint.determinism``); its measurements are quarantined to a
    separate channel that never feeds seedcheck fingerprints.

Everything is **off by default**: the active context holds a
:class:`NullTracer`/:class:`NullMetrics`/:class:`NullProfiler`, and
instrumented hot paths cache ``None`` so a disabled run pays one
``is not None`` test per hook.  Enable with::

    from tussle import obs
    with obs.observe(tracer=obs.Tracer(), metrics=obs.Metrics()) as ctx:
        result = run_e01()
    ctx.tracer.write_jsonl("trace.jsonl")

Analyze a trace with ``python -m tussle.obs report trace.jsonl``; gate
the perf ledger with ``python -m tussle.obs perf --check``.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".diff": ("Divergence", "diff_files", "first_divergence",
              "format_divergence"),
    ".metrics": ("Counter", "Gauge", "Histogram", "Metrics", "MetricsScope",
                 "NullMetrics"),
    ".profiler": ("NullProfiler", "Profiler"),
    ".runtime": ("ObsContext", "current", "observe"),
    ".telemetry": ("NullSweepTelemetry", "SweepTelemetry", "wall_path_for"),
    ".tracer": ("NullTracer", "Span", "Tracer"),
})
