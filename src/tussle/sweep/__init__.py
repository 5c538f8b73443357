"""tussle.sweep: parallel multi-seed / parameter sweep engine.

The ROADMAP's north star asks the framework to validate the paper's
qualitative claims over "as many scenarios as you can imagine", as fast
as the hardware allows.  This package fans ``(experiment, params, seed)``
cells out across supervised worker processes while keeping the output
byte-reproducible:

:mod:`~tussle.sweep.cells`
    The cell model — canonical parameter JSON, grid expansion, and the
    SHA-256 seed derivation that keeps every cell's RNG stream
    independent of every other's.
:mod:`~tussle.sweep.executors`
    The sanctioned parallelism site (lint rule D110): the crash-safe
    ``ResilientExecutor`` (one reused, supervised worker process per
    job slot) plus an in-process executor for debugging, both returning
    identical payloads.
:mod:`~tussle.sweep.scheduler`
    Cache-aware dispatch and the deterministic merge: output is sorted
    by cell identity, never by completion order.
:mod:`~tussle.sweep.cache`
    On-disk completed-cell cache keyed by (experiment, params, seed,
    code fingerprint) — re-runs and CI are incremental.
:mod:`~tussle.sweep.aggregate`
    Collapses the seed axis into per-metric summaries and robustness
    verdicts ("E01 shape holds on 50/50 seeds") by folding every cell
    through :class:`~tussle.sweep.progress.StreamingAggregator`.

Quickstart::

    from tussle.sweep import SweepSpec, ResilientExecutor, run_sweep
    from tussle.sweep.aggregate import aggregate

    spec = SweepSpec(experiment_ids=["E01"], seeds=list(range(20)), grid={})
    report = run_sweep(spec, executor=ResilientExecutor(jobs=4))
    print(aggregate(report.cells)["verdicts"])

or from the command line: ``python -m tussle sweep E01 --seeds 20 --jobs 4``.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "..canon": ("derive_seed",),
    ".aggregate": ("metric_scalars",),
    ".cache": ("ResultCache", "code_fingerprint"),
    ".cells": ("Cell", "SweepSpec", "canonical_params", "expand_grid"),
    ".executors": ("InProcessExecutor", "ResilientExecutor", "run_cell"),
    ".progress": ("StreamingAggregator",),
    ".scheduler": ("SweepReport", "run_sweep"),
})
