"""Property-based tests (hypothesis) for sweep canonicalization.

The sweep engine's determinism rests on three canonical forms: the
params JSON, the cache key, and the result wire format.  Each must be
invariant to representational noise (dict insertion order, value order)
and lossless under round-trip.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tussle.experiments import ALL_EXPERIMENTS
from tussle.experiments.common import Table, canonical_json
from tussle.sweep import (
    Cell,
    ResultCache,
    canonical_params,
    derive_seed,
    expand_grid,
)

param_keys = st.text(alphabet="abcdefghijklmnop_", min_size=1, max_size=10)
scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
)
param_dicts = st.dictionaries(param_keys, scalars, max_size=6)
grids = st.dictionaries(param_keys, st.lists(scalars, min_size=1, max_size=3,
                                             unique_by=canonical_json),
                        max_size=3)


def reordered(mapping, reverse_values=False):
    """The same mapping with reversed insertion order (and value order)."""
    out = {}
    for key in reversed(list(mapping)):
        value = mapping[key]
        if reverse_values and isinstance(value, list):
            value = list(reversed(value))
        out[key] = value
    return out


class TestCanonicalization:
    @settings(deadline=None)
    @given(param_dicts)
    def test_canonical_params_insertion_order_invariant(self, params):
        assert canonical_params(params) == canonical_params(reordered(params))

    @settings(deadline=None)
    @given(param_dicts)
    def test_canonical_params_round_trip(self, params):
        assert json.loads(canonical_params(params)) == params

    @settings(deadline=None)
    @given(grids)
    def test_grid_expansion_order_insensitive(self, grid):
        baseline = expand_grid(grid)
        assert baseline == expand_grid(reordered(grid, reverse_values=True))

    @settings(deadline=None)
    @given(grids)
    def test_grid_expansion_covers_the_product(self, grid):
        expanded = expand_grid(grid)
        expected = 1
        for values in grid.values():
            expected *= len(values)
        assert len(expanded) == expected
        assert len({canonical_params(p) for p in expanded}) == expected

    @settings(deadline=None)
    @given(param_dicts, st.integers(min_value=0, max_value=2 ** 31))
    def test_cache_key_stable_across_insertion_order(self, params, seed):
        cache = ResultCache("unused-root", fingerprint="fp")
        cell_a = Cell(experiment_id="E01",
                      params_json=canonical_params(params),
                      base_seed=seed,
                      seed=derive_seed(seed, "E01", canonical_params(params)))
        cell_b = Cell(experiment_id="E01",
                      params_json=canonical_params(reordered(params)),
                      base_seed=seed,
                      seed=derive_seed(seed, "E01",
                                       canonical_params(reordered(params))))
        assert cache.key(cell_a) == cache.key(cell_b)

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_derived_seeds_distinct_across_labels(self, base_seed):
        seeds = {derive_seed(base_seed, eid, "{}")
                 for eid in sorted(ALL_EXPERIMENTS)}
        assert len(seeds) == len(ALL_EXPERIMENTS)
        assert all(0 <= s < 2 ** 63 for s in seeds)

    def test_derive_seed_is_stable_across_processes(self):
        # Pinned values: the derivation must never drift, or every cache
        # entry and recorded sweep in the wild silently invalidates.
        assert derive_seed(0, "E01", "{}") == 9176064134830089106
        assert derive_seed(1, "E01", "{}") == 4277605397436725453


rows = st.lists(st.dictionaries(param_keys, scalars, max_size=4),
                min_size=0, max_size=5)


class TestResultRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(rows)
    def test_table_json_round_trip_is_byte_stable(self, row_dicts):
        columns = sorted({k for row in row_dicts for k in row}) or ["c"]
        table = Table("t", columns)
        for row in row_dicts:
            table.add_row(**row)
        text = canonical_json(table.to_dict())
        assert canonical_json(json.loads(text)) == text

    @pytest.mark.parametrize("experiment_id", sorted(ALL_EXPERIMENTS))
    def test_experiment_result_round_trip_lossless(self, experiment_id):
        result = ALL_EXPERIMENTS[experiment_id](seed=0)
        text = result.to_json()
        revived = json.loads(text)
        assert canonical_json(revived) == text
        assert revived["shape_holds"] == result.shape_holds
