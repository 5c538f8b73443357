"""Bit-stable primitives: canonical JSON and an ordered float sum.

Lives at the package root with no dependencies beyond :mod:`tussle.errors`
so that leaf subsystems (``resil``, ``sweep``, ``experiments``) can all
share the same bytes without importing each other.
:mod:`tussle.experiments.common` re-exports :func:`canonical_json` for
backwards compatibility.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

from .errors import ExperimentError

__all__ = ["canonical_json", "ordered_sum"]


def ordered_sum(values: Iterable[Any]) -> Any:
    """Left-to-right sum from int ``0``, the same on every Python.

    Since 3.12, builtin ``sum()`` compensates float rounding (Neumaier),
    so a float total can differ in the last bit from the left-to-right
    sum of 3.9-3.11 that every pin was made with.  An empty or all-int
    input keeps ``sum()``'s int result.  ``math.fsum`` is no substitute:
    it is exact, so it would move the pins too.
    """
    total = 0
    for value in values:
        total = total + value
    return total


def canonical_json(payload: Any) -> str:
    """Bit-stable canonical JSON: sorted keys, compact separators.

    Floats are emitted via ``repr`` (Python's shortest round-trip decimal
    form), so the exact IEEE-754 value survives a dump/load cycle and the
    same payload always yields the same bytes.  NaN/inf are rejected —
    they would not round-trip through strict JSON parsers.
    """
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True, allow_nan=False)
    except ValueError as exc:
        raise ExperimentError(
            f"payload is not canonically serialisable: {exc}") from exc
