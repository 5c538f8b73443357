"""The registry's bytes do not depend on how builtin ``sum()`` rounds.

Since Python 3.12, builtin ``sum()`` compensates float rounding
(Neumaier), so a float total can differ in the last bit from the
left-to-right sum of 3.9-3.11 that every pin was made with.  Float
totals that reach an output therefore go through
:func:`tussle.canon.ordered_sum`.  These tests run the whole registry,
and aggregate a sweep over it, under a Python copy of each ``sum()`` and
require equal bytes, so a float ``sum()`` that reaches an output fails
on every Python.
"""

import builtins
import inspect
import math
import sys

from tussle.canon import canonical_json, ordered_sum
from tussle.experiments import ALL_EXPERIMENTS
from tussle.lint.seedcheck import fingerprint
from tussle.sweep import aggregate


C_LONG_MIN, C_LONG_MAX = -2 ** 63, 2 ** 63 - 1


def left_to_right_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.9-3.11 compute it."""
    total = start
    for item in iterable:
        total = total + item
    return total


def neumaier_sum(iterable, /, start=0):
    """A copy of CPython 3.12's ``builtin_sum_impl`` (64-bit C long).

    Ints and bools accumulate exactly while the total fits a C long.
    Once the total is an exact ``float``, exact ``float`` items are
    added with Neumaier compensation and in-range ints are added as
    doubles; any other item (a ``numpy.float64``, say) folds the
    compensation in and continues with plain ``+``.
    """
    items = iter(iterable)
    total = start
    if type(total) is int and C_LONG_MIN <= total <= C_LONG_MAX:
        for item in items:
            total = total + item
            if (type(item) not in (int, bool)
                    or not C_LONG_MIN <= total <= C_LONG_MAX):
                break
        else:
            return total
    if type(total) is float:
        compensation = 0.0
        for item in items:
            if type(item) is float:
                step = total + item
                if abs(total) >= abs(item):
                    compensation += (total - step) + item
                else:
                    compensation += (item - step) + total
                total = step
                continue
            if isinstance(item, int) and C_LONG_MIN <= item <= C_LONG_MAX:
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        total = total + item
    return total


SAMPLES = ([0.1] * 10, [1e100, 1.0, -1e100], [1, 2.5, True, 0.1, 0.2],
           [], [3, 4], [0.5, 2 ** 70, 0.25], [2 ** 70, 0.1, 0.2])


def test_emulations_match_their_pythons():
    assert neumaier_sum([0.1] * 10) == 1.0
    assert left_to_right_sum([0.1] * 10) == 0.9999999999999999
    native = neumaier_sum if sys.version_info >= (3, 12) else left_to_right_sum
    for sample in SAMPLES:
        assert repr(native(sample)) == repr(sum(sample)), sample


def test_ordered_sum_is_left_to_right():
    for sample in SAMPLES:
        assert repr(ordered_sum(sample)) == repr(left_to_right_sum(sample))
    assert type(ordered_sum([])) is int and type(ordered_sum([3, 4])) is int


def _cases():
    for experiment_id in sorted(ALL_EXPERIMENTS):
        yield experiment_id, {}
        default = inspect.signature(
            ALL_EXPERIMENTS[experiment_id]).parameters["seed"].default
        if default != 0:
            yield experiment_id, {"seed": 0}


def _fingerprints(monkeypatch, summer):
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum", summer)
        return {(experiment_id, kwargs.get("seed")):
                fingerprint(ALL_EXPERIMENTS[experiment_id](**kwargs))
                for experiment_id, kwargs in _cases()}


def test_registry_bytes_do_not_depend_on_sum(monkeypatch):
    plain = _fingerprints(monkeypatch, left_to_right_sum)
    compensated = _fingerprints(monkeypatch, neumaier_sum)
    differing = [case for case in plain if plain[case] != compensated[case]]
    assert differing == []


def test_sweep_aggregate_does_not_depend_on_sum(monkeypatch, registry_sweep):
    cells = registry_sweep(range(3)).cells
    documents = []
    for summer in (left_to_right_sum, neumaier_sum):
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "sum", summer)
            documents.append(canonical_json(aggregate(cells)))
    assert documents[0] == documents[1]
