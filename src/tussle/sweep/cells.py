"""Cell model for parameter sweeps.

A sweep is a matrix of *cells*: one cell is one experiment run at one
parameter point and one seed.  Everything downstream — scheduling,
caching, merging, aggregation — keys off the cell's canonical identity:

``(experiment_id, canonical params JSON, seed)``

where the params JSON is produced by :func:`canonical_params` (sorted
keys, compact separators, exact floats), so two dicts with different
insertion order name the same cell.

Seed isolation
--------------
Workers never share RNG state: each cell's run seed is *derived* from
the sweep's base seed and the cell's identity via
:func:`tussle.canon.derive_seed` (SHA-256 over the labels).  Two cells
with the same base seed but
different experiments or parameters therefore drive their simulations
from statistically independent streams, and a cell's seed is a pure
function of its identity — independent of which worker runs it, or in
what order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence

from ..canon import canonical_json, derive_seed
from ..errors import SweepError

__all__ = ["Cell", "SweepSpec", "canonical_params", "expand_grid"]


def canonical_params(params: Mapping[str, Any]) -> str:
    """Canonical JSON of a parameter mapping (sorted keys, exact floats)."""
    return canonical_json(dict(params))


def expand_grid(grid: Mapping[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a parameter grid, in canonical order.

    Insensitive to both key insertion order and value order: keys are
    iterated sorted and the expanded points are sorted by their
    canonical JSON, so any permutation of the input yields the same
    list.  An empty grid expands to the single empty parameter point.
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    for key in keys:
        if not grid[key]:
            raise SweepError(f"grid axis {key!r} has no values")
    points = [dict(zip(keys, combo))
              for combo in itertools.product(*(grid[k] for k in keys))]
    return sorted(points, key=canonical_params)


@dataclass(frozen=True)
class Cell:
    """One (experiment, parameter point, seed) run in a sweep matrix.

    ``seed`` is the derived run seed actually passed to the experiment;
    ``base_seed`` is the matrix axis it came from.
    """

    experiment_id: str
    params_json: str
    base_seed: int
    seed: int

    @property
    def params(self) -> Dict[str, Any]:
        return json.loads(self.params_json)

    @property
    def sort_key(self) -> tuple:
        """Deterministic merge order, independent of completion order."""
        return (self.experiment_id, self.params_json, self.base_seed)

    @property
    def label(self) -> str:
        point = "" if self.params_json == "{}" else f" {self.params_json}"
        return f"{self.experiment_id}{point} seed={self.base_seed}"


@dataclass
class SweepSpec:
    """What to sweep: experiments x parameter grid x base seeds."""

    experiment_ids: List[str]
    seeds: List[int]
    grid: Dict[str, List[Any]]

    def __post_init__(self) -> None:
        if not self.experiment_ids:
            raise SweepError("sweep needs at least one experiment")
        if not self.seeds:
            raise SweepError("sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise SweepError("sweep seeds must be distinct")

    def cells(self) -> List[Cell]:
        """The full matrix in canonical (merge) order."""
        matrix = []
        for experiment_id in sorted(set(self.experiment_ids)):
            for point in expand_grid(self.grid):
                params_json = canonical_params(point)
                for base_seed in sorted(self.seeds):
                    matrix.append(Cell(
                        experiment_id=experiment_id,
                        params_json=params_json,
                        base_seed=base_seed,
                        seed=derive_seed(base_seed, experiment_id,
                                         params_json),
                    ))
        return matrix
