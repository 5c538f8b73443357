"""Per-layer spans, recorded from outside the program.

The benchmark does not edit ``src/``.  For a traced pass it wraps the
public functions that form each layer's boundary, keeps one span per
call (name, start, end, parent) in memory, and derives the per-layer
metrics from those spans afterwards.  Every binding of a wrapped
function across the loaded ``tussle`` modules is replaced, so a caller
that imported the function by name (``from .value import
route_volumes``) is traced too; a caller that stops going through that
name shows up as zero calls, which :func:`check_coverage` refuses.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

PEERING = "peering-war"
POPULATION = "population"
SWEEP = "registry-sweep"
WORKLOADS = (PEERING, POPULATION, SWEEP)

#: The public kernels in ``tussle.scale.kernels`` that VectorMarket calls
#: on the population workload (``round_kernel_bytes`` runs only when obs
#: metrics are enabled, which this workload never does).
KERNELS = ("effective_offer_column", "amount_paid_values", "best_provider",
           "switching_masks", "ordered_total", "apply_surplus_updates",
           "per_provider_revenue", "subscriber_counts")


class CoverageError(RuntimeError):
    """A per-layer metric is missing or its layer recorded no calls."""


class Recorder:
    """In-memory span store: one ``[name, start, end, parent, attrs]`` per call."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, summed attributes.

        Self time is a span's duration minus the durations of its direct
        children (spans nest within one thread, so children never overlap).
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _, attrs) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[index]
            for key, value in (attrs or {}).items():
                entry[key] = entry.get(key, 0) + value
        return out

    def jsonl(self, workload: str) -> Iterator[str]:
        for index, (name, start, end, parent, attrs) in enumerate(self.spans):
            yield json.dumps({"workload": workload, "id": index, "name": name,
                              "start": start, "end": end, "parent": parent,
                              "attrs": attrs}, sort_keys=True)


# ----------------------------------------------------------------------
# Post-call hooks: counts read at the layer boundary, stored on the span.
# ----------------------------------------------------------------------
def _rib_cells(args: tuple, kwargs: dict, result: Any) -> dict:
    # ASes x destinations recomputed by this convergence.
    return {"rib_cells": int(args[0].fast_rib.cls.size)}


def _agreed(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"agreed": int(result is not None)}


def _consumers(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"consumers": len(args[0].arrays)}


def _sweep_report(args: tuple, kwargs: dict, report: Any) -> dict:
    from tussle.obs import current

    # The CLI installs a Profiler around run_sweep; the scheduler folds
    # each worker's cell seconds into it under ``worker.<name>``.
    profile = current().profiler.snapshot()
    workers = [stat for key, stat in profile.items()
               if key.startswith("worker.")]
    executor = kwargs.get("executor", args[1] if len(args) > 1 else None)
    return {
        "cells": sum(stat["calls"] for stat in workers),
        "cell_s": sum(stat["total_seconds"] for stat in workers),
        "jobs": getattr(executor, "jobs", 1),
        "failed_cells": report.stats["cells_failed"],
        "retries": report.recovery.get("retries", 0),
    }


#: (span name, wrapped targets as ``module:qualname``, post-call hook)
LAYERS: List[Tuple[str, Tuple[str, ...], Optional[Callable]]] = [
    ("topogen.generate", ("tussle.topogen.generator:generate_internet",), None),
    ("tmatrix.build", ("tussle.peering.value:TrafficMatrix.from_network",), None),
    ("vrouting.converge",
     ("tussle.routing.pathvector:PathVectorRouting.converge_fast",), _rib_cells),
    ("value.route_volumes", ("tussle.peering.value:route_volumes",), None),
    ("value.cone_traffic", ("tussle.peering.value:cone_traffic",), None),
    ("value.edge_traffic", ("tussle.peering.value:edge_traffic",), None),
    ("value.customer_cones", ("tussle.peering.value:customer_cones",), None),
    ("value.as_accounts", ("tussle.peering.value:as_accounts",), None),
    ("bargain.evaluate_pair", ("tussle.peering.bargain:evaluate_pair",), _agreed),
    ("dynamics.step", ("tussle.peering.dynamics:PeeringDynamics.step",), None),
    ("large.batch_build", ("tussle.scale.large:lockin_batch",
                           "tussle.scale.large:value_pricing_batch"), None),
    ("arrays.from_batch", ("tussle.scale.arrays:MarketArrays.from_batch",), None),
    ("vmarket.step", ("tussle.scale.vmarket:VectorMarket.step",), _consumers),
] + [
    (f"kernels.{name}", (f"tussle.scale.kernels:{name}",), None)
    for name in KERNELS
] + [
    ("sweep.run", ("tussle.sweep.scheduler:run_sweep",), _sweep_report),
    ("sweep.aggregate", ("tussle.sweep.aggregate:aggregate",), None),
    ("netsim.send", ("tussle.netsim.forwarding:ForwardingEngine.send",), None),
]


def _traced(recorder: Recorder, name: str, fn: Callable,
            hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if hook is not None:
            recorder.spans[index][4] = hook(args, kwargs, result)
        return result
    return traced


@contextmanager
def install(recorder: Recorder) -> Iterator[None]:
    """Wrap every layer boundary for the duration of the block."""
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for name, targets, hook in LAYERS:
            for target in targets:
                module_name, qualname = target.split(":")
                owner: Any = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                if path:  # a method or classmethod: callers reach it via the class
                    if isinstance(original, classmethod):
                        wrapped: Any = classmethod(
                            _traced(recorder, name, original.__func__, hook))
                    else:
                        wrapped = _traced(recorder, name, original, hook)
                    patch(owner, attr, wrapped)
                    continue
                wrapped = _traced(recorder, name, original, hook)
                for module_key in sorted(sys.modules):
                    module = sys.modules[module_key]
                    if module is None or not (module_key == "tussle"
                                              or module_key.startswith("tussle.")):
                        continue
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            patch(module, binding, wrapped)
        yield
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _field(key: str) -> Callable[[dict], float]:
    return lambda entry: entry[key]


#: (metric, unit, workload whose traced pass measures it, span, reading)
_SPAN_METRICS: List[Tuple[str, str, str, str, Callable[[dict], float]]] = [
    ("topogen.generate_s", "s", PEERING, "topogen.generate", _field("s")),
    ("tmatrix.build_s", "s", PEERING, "tmatrix.build", _field("s")),
    ("vrouting.converge_calls", "count", PEERING, "vrouting.converge",
     _field("calls")),
    ("vrouting.converge_s", "s", PEERING, "vrouting.converge", _field("s")),
    ("vrouting.rib_cells", "count", PEERING, "vrouting.converge",
     _field("rib_cells")),
    ("value.route_volumes_calls", "count", PEERING, "value.route_volumes",
     _field("calls")),
    ("value.route_volumes_s", "s", PEERING, "value.route_volumes", _field("s")),
    ("value.cone_traffic_calls", "count", PEERING, "value.cone_traffic",
     _field("calls")),
    ("value.cone_traffic_s", "s", PEERING, "value.cone_traffic", _field("s")),
    ("value.edge_traffic_calls", "count", PEERING, "value.edge_traffic",
     _field("calls")),
    ("value.customer_cones_s", "s", PEERING, "value.customer_cones", _field("s")),
    ("value.as_accounts_s", "s", PEERING, "value.as_accounts", _field("s")),
    ("bargain.evaluate_pair_calls", "count", PEERING, "bargain.evaluate_pair",
     _field("calls")),
    ("bargain.evaluate_pair_s", "s", PEERING, "bargain.evaluate_pair",
     _field("s")),
    ("bargain.agreed_ratio", "ratio", PEERING, "bargain.evaluate_pair",
     lambda e: e["agreed"] / e["calls"]),
    ("dynamics.steps", "count", PEERING, "dynamics.step", _field("calls")),
    ("dynamics.step_s", "s", PEERING, "dynamics.step", _field("s")),
    ("dynamics.self_s", "s", PEERING, "dynamics.step", _field("self_s")),
    ("large.batch_build_s", "s", POPULATION, "large.batch_build", _field("s")),
    ("arrays.from_batch_s", "s", POPULATION, "arrays.from_batch", _field("s")),
    ("vmarket.rounds", "count", POPULATION, "vmarket.step", _field("calls")),
    ("vmarket.step_s", "s", POPULATION, "vmarket.step", _field("s")),
    ("vmarket.consumer_rounds", "count", POPULATION, "vmarket.step",
     _field("consumers")),
] + [
    (f"kernels.{name}_s", "s", POPULATION, f"kernels.{name}", _field("s"))
    for name in KERNELS
] + [
    ("sweep.cells", "count", SWEEP, "sweep.run", _field("cells")),
    ("sweep.cell_s", "s", SWEEP, "sweep.run", _field("cell_s")),
    # jobs x wall - busy cell seconds: dispatch, fork, merge and idle.
    ("sweep.overhead_s", "s", SWEEP, "sweep.run",
     lambda e: e["jobs"] * e["s"] - e["cell_s"]),
    ("sweep.parallel_eff", "ratio", SWEEP, "sweep.run",
     lambda e: e["cell_s"] / (e["jobs"] * e["s"])),
    ("sweep.aggregate_s", "s", SWEEP, "sweep.aggregate", _field("s")),
    ("sweep.failed_cells", "count", SWEEP, "sweep.run", _field("failed_cells")),
    ("sweep.retries", "count", SWEEP, "sweep.run", _field("retries")),
    ("netsim.send_calls", "count", SWEEP, "netsim.send", _field("calls")),
    ("netsim.send_s", "s", SWEEP, "netsim.send", _field("s")),
]

#: Metrics measured outside the spans (see ``run.py``/``worker.py``).
IMPORT_METRICS = (("import.tussle_s", "s"), ("import.scipy_s", "s"))
#: Traced pass wall of the named workload, and it minus the untraced one.
TRACE_METRICS = (("trace.wall_s", "s"), ("trace.overhead_s", "s"))


def _exp_metrics(registry: Sequence[str]):
    return [(f"exp.{eid}_s", "s", SWEEP, f"exp.{eid}", _field("s"))
            for eid in registry]


def metric_units(registry: Sequence[str]) -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = dict(IMPORT_METRICS)
    units.update((name, unit) for name, unit, *_ in _SPAN_METRICS)
    units.update((name, unit) for name, unit, *_ in _exp_metrics(registry))
    units.update(TRACE_METRICS)
    return units


def span_metrics(recorders: Dict[str, Recorder],
                 registry: Sequence[str]) -> Dict[str, float]:
    """Read every span-based metric from its own workload's traced pass.

    Raises :class:`CoverageError` naming each metric whose layer recorded
    no calls (or whose hook never ran) on the workload it belongs to.
    """
    stats = {workload: recorder.stats()
             for workload, recorder in recorders.items()}
    values: Dict[str, float] = {}
    missing: List[str] = []
    for name, _, workload, span, read in _SPAN_METRICS + _exp_metrics(registry):
        entry = stats.get(workload, {}).get(span)
        try:
            values[name] = read(entry)
        except (KeyError, TypeError, ZeroDivisionError):
            missing.append(f"{name} (span {span!r} on {workload})")
    if missing:
        raise CoverageError("no calls recorded for: " + "; ".join(missing))
    return values


def check_coverage(values: Dict[str, float], registry: Sequence[str]) -> None:
    """Fail loudly unless every per-layer metric is present."""
    absent = sorted(set(metric_units(registry)) - set(values))
    if absent:
        raise CoverageError("per-layer metrics missing: " + ", ".join(absent))
