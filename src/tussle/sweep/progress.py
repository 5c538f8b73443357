"""Streaming aggregation: running verdicts while a sweep is in flight.

A sweep's verdicts should *update as cells land*, not only once every
cell is in.  This module provides that, and batch
:func:`tussle.sweep.aggregate.aggregate` is a fold over it:

:class:`MergingDigest`
    A mergeable summary of a float multiset supporting incremental
    min / median / mean / max.  Below its centroid cap the digest is
    *exact* and insertion-order-insensitive: centroids are the sorted
    multiset itself and every statistic is computed over sorted values,
    so a digest built cell-by-cell in completion order equals — byte for
    byte — one built from the full value list.  Beyond the cap it
    compresses deterministically (adjacent-pair weighted merge) and
    becomes an approximation; sweep groups (one value per seed) stay
    far below the cap.  Digests serialize and merge, which is what a
    multi-host fabric needs to combine per-shard summaries.

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
import math
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SweepError

__all__ = ["MergingDigest", "StreamingAggregator"]

#: Centroid count above which a digest compresses (and approximates).
DIGEST_CAP = 512


class MergingDigest:
    """Mergeable min/median/mean/max digest over a float multiset."""

    __slots__ = ("cap", "_centroids", "_count")

    def __init__(self, cap: int = DIGEST_CAP):
        if cap < 2:
            raise SweepError(f"digest cap must be >= 2, got {cap}")
        self.cap = int(cap)
        #: (value, weight) pairs, sorted by value
        self._centroids: List[Tuple[float, float]] = []
        self._count = 0

    @classmethod
    def from_values(cls, values: List[float],
                    cap: int = DIGEST_CAP) -> "MergingDigest":
        digest = cls(cap=cap)
        for value in values:
            digest.add(value)
        return digest

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Fold one observation in (any insertion order, same digest)."""
        bisect.insort(self._centroids, (float(value), 1.0))
        self._count += 1
        if len(self._centroids) > self.cap:
            self._compress()

    def merge(self, other: "MergingDigest") -> None:
        """Fold another digest's centroids into this one."""
        merged = sorted(self._centroids + other._centroids)
        self._centroids = merged
        self._count += other._count
        if len(self._centroids) > self.cap:
            self._compress()

    def _compress(self) -> None:
        """Shrink the centroid list by merging adjacent interior pairs.

        Deterministic given the current centroid list.  The outermost
        centroids are never merged, so ``minimum``/``maximum`` (and the
        total count and weight) stay exact through any number of
        compressions; interior quantiles become approximations.
        """
        centroids = self._centroids
        if len(centroids) <= 2:
            return
        last = len(centroids) - 1
        compressed: List[Tuple[float, float]] = [centroids[0]]
        index = 1
        while index < last:
            if index + 1 < last:
                (v1, w1), (v2, w2) = centroids[index], centroids[index + 1]
                weight = w1 + w2
                compressed.append(((v1 * w1 + v2 * w2) / weight, weight))
                index += 2
            else:
                compressed.append(centroids[index])
                index += 1
        compressed.append(centroids[last])
        self._centroids = compressed

    # ------------------------------------------------------------------
    # Queries (all computed over the sorted centroid list, so the
    # result is a pure function of the folded multiset)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def exact(self) -> bool:
        """True while no compression has happened (weights all 1)."""
        return len(self._centroids) == self._count

    def minimum(self) -> float:
        self._require_values()
        return self._centroids[0][0]

    def maximum(self) -> float:
        self._require_values()
        return self._centroids[-1][0]

    def mean(self) -> float:
        """Weighted mean, summed in ascending-value order."""
        self._require_values()
        total = 0.0
        weight_total = 0.0
        for value, weight in self._centroids:
            total += value * weight
            weight_total += weight
        return total / weight_total

    def median(self) -> float:
        """The weighted median; equals ``statistics.median`` when exact."""
        self._require_values()
        weight_total = sum(weight for _, weight in self._centroids)
        position = (weight_total - 1.0) / 2.0
        lo = self._value_at(math.floor(position))
        hi = self._value_at(math.ceil(position))
        return lo if lo == hi else (lo + hi) / 2.0

    def _value_at(self, target: float) -> float:
        """The centroid value covering 0-based expanded position ``target``."""
        cumulative = 0.0
        for value, weight in self._centroids:
            if cumulative + weight > target:
                return value
            cumulative += weight
        return self._centroids[-1][0]

    def _require_values(self) -> None:
        if not self._centroids:
            raise SweepError("digest is empty")

    def summary(self) -> Dict[str, float]:
        """The aggregate-layout summary dict for this multiset."""
        return {
            "min": self.minimum(),
            "median": float(self.median()),
            "mean": self.mean(),
            "max": self.maximum(),
        }

    # ------------------------------------------------------------------
    # Serialization (for cross-shard merging)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "cap": self.cap,
            "count": self._count,
            "centroids": [[value, weight]
                          for value, weight in self._centroids],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MergingDigest":
        digest = cls(cap=data["cap"])
        digest._count = int(data["count"])
        digest._centroids = [(float(value), float(weight))
                             for value, weight in data["centroids"]]
        return digest


class _GroupState:
    """Running state for one (experiment, parameter point) group."""

    __slots__ = ("experiment_id", "params", "params_json", "seeds",
                 "failed_seeds", "ok_states", "digests")

    def __init__(self, experiment_id: str, params: Dict[str, Any],
                 params_json: str):
        self.experiment_id = experiment_id
        self.params = params
        self.params_json = params_json
        self.seeds: List[int] = []
        self.failed_seeds: List[int] = []
        #: seed -> (shape_holds, [(claim, holds), ...]) for ok cells
        self.ok_states: Dict[int, Tuple[bool, List[Tuple[str, bool]]]] = {}
        #: metric name -> incremental digest (ok cells only)
        self.digests: Dict[str, MergingDigest] = {}

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
            digest = group.digests.get(name)
            if digest is None:
                digest = group.digests[name] = MergingDigest()
            digest.add(value)
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
        in sorted-seed order, metric summaries from each group's digest.
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
            metrics = {name: group.digests[name].summary()
                       for name in sorted(group.digests)}
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
