"""Streaming aggregation: running verdicts while a sweep is in flight.

A sweep's verdicts should *update as cells land*, not only once every
cell is in.  This module provides that, and batch
:func:`tussle.sweep.aggregate.aggregate` is a fold over it:

:func:`summary`
    min / median / mean / max over one metric's per-seed values, kept
    as a sorted list as cells land.  Every statistic is read from the
    sorted values (the mean summed in ascending order), so a list built
    cell by cell in completion order gives the same bytes as one built
    from the full value list.

:class:`StreamingAggregator`
    Folds merged-channel payloads one at a time, in any order, into
    per-``(experiment, parameter point)`` group states, and exposes a
    running one-line verdict after every fold.  Its
    :meth:`~StreamingAggregator.snapshot` is the aggregate document;
    checks are reconstructed in sorted-seed order, so folding cells in
    completion order gives the same bytes as folding them sorted
    (test-asserted).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Tuple

from ..canon import ordered_sum
from ..errors import SweepError

__all__ = ["StreamingAggregator", "summary"]


def summary(values: List[float]) -> Dict[str, float]:
    """The aggregate-layout summary of ascending, non-empty ``values``.

    The median equals ``statistics.median``; the mean is summed in
    ascending order.
    """
    lo = values[(len(values) - 1) // 2]
    hi = values[len(values) // 2]
    return {
        "min": values[0],
        "median": lo if lo == hi else (lo + hi) / 2,
        "mean": ordered_sum(values) / len(values),
        "max": values[-1],
    }


class _GroupState:
    """Running state for one (experiment, parameter point) group."""

    __slots__ = ("experiment_id", "params", "params_json", "seeds",
                 "failed_seeds", "ok_states", "values")

    def __init__(self, experiment_id: str, params: Dict[str, Any],
                 params_json: str):
        self.experiment_id = experiment_id
        self.params = params
        self.params_json = params_json
        self.seeds: List[int] = []
        self.failed_seeds: List[int] = []
        #: seed -> (shape_holds, [(claim, holds), ...]) for ok cells
        self.ok_states: Dict[int, Tuple[bool, List[Tuple[str, bool]]]] = {}
        #: metric name -> ascending per-seed values (ok cells only)
        self.values: Dict[str, List[float]] = {}

    @property
    def holding(self) -> int:
        return sum(1 for holds, _ in self.ok_states.values() if holds)

    def verdict(self, total_seeds: Optional[int] = None) -> str:
        """The group's one-line verdict over the cells folded so far."""
        denominator = (total_seeds if total_seeds is not None
                       else len(self.seeds))
        line = (f"{self.experiment_id} shape holds on "
                f"{self.holding}/{denominator} seeds")
        if self.failed_seeds:
            line += f" ({len(self.failed_seeds)} failed)"
        return line


class StreamingAggregator:
    """Folds merged-channel cell payloads into running verdicts.

    Payloads may arrive in any order (completion order under a parallel
    executor); the final :meth:`snapshot` is nonetheless byte-identical
    to :func:`tussle.sweep.aggregate.aggregate`, the same fold over the
    sorted cells.
    """

    def __init__(self) -> None:
        self._groups: Dict[Tuple[str, str], _GroupState] = {}
        self.cells_seen = 0

    def fold(self, payload: Dict[str, Any]) -> _GroupState:
        """Fold one cell payload; returns the updated group state."""
        from .cells import canonical_params
        from .aggregate import metric_scalars

        params_json = canonical_params(payload["params"])
        key = (payload["experiment_id"], params_json)
        group = self._groups.get(key)
        if group is None:
            group = _GroupState(payload["experiment_id"],
                                payload["params"], params_json)
            self._groups[key] = group

        seed = payload["base_seed"]
        if seed in group.seeds:
            raise SweepError(
                f"cell {key!r} seed={seed} folded twice")
        group.seeds.append(seed)
        self.cells_seen += 1
        if payload["status"] != "ok":
            group.failed_seeds.append(seed)
            return group

        result = payload["result"]
        checks = [(check["claim"], bool(check["holds"]))
                  for check in result["checks"]]
        group.ok_states[seed] = (bool(result["shape_holds"]), checks)
        for name, value in metric_scalars(result).items():
            bisect.insort(group.values.setdefault(name, []), value)
        return group

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def verdicts(self) -> List[str]:
        """Running verdicts, in deterministic group order."""
        return [self._groups[key].verdict() for key in sorted(self._groups)]

    def snapshot(self) -> Dict[str, Any]:
        """The full aggregate document over the cells folded so far.

        Groups come out in sorted identity order, checks reconstructed
        in sorted-seed order, metric summaries from each group's values.
        """
        from .aggregate import AGGREGATE_SCHEMA

        groups = []
        for key in sorted(self._groups):
            group = self._groups[key]
            ok_seeds = sorted(group.ok_states)
            checks: List[Dict[str, Any]] = []
            if ok_seeds:
                claims = [claim for claim, _
                          in group.ok_states[ok_seeds[0]][1]]
                for index, claim in enumerate(claims):
                    passes = sum(
                        1 for seed in ok_seeds
                        if index < len(group.ok_states[seed][1])
                        and group.ok_states[seed][1][index][1]
                    )
                    checks.append({
                        "claim": claim,
                        "passes": passes,
                        "seeds": len(ok_seeds),
                        "pass_fraction": passes / len(ok_seeds),
                    })
            metrics = {name: summary(group.values[name])
                       for name in sorted(group.values)}
            total = len(group.seeds)
            holding = group.holding
            groups.append({
                "experiment_id": group.experiment_id,
                "params": group.params,
                "seeds": sorted(group.seeds),
                "cells": total,
                "cells_failed": len(group.failed_seeds),
                "shape_holds_count": holding,
                "robust": bool(ok_seeds) and holding == total,
                "verdict": group.verdict(),
                "checks": checks,
                "metrics": metrics,
            })
        return {
            "schema": AGGREGATE_SCHEMA,
            "groups": groups,
            "robust": all(group["robust"] for group in groups),
            "verdicts": [group["verdict"] for group in groups],
        }
