"""Bit-stable primitives: canonical JSON, an ordered float sum and
labelled seed derivation.

Lives at the package root with no dependencies beyond :mod:`tussle.errors`
so that leaf subsystems (``resil``, ``sweep``, ``experiments``) can all
share the same bytes without importing each other.
:mod:`tussle.experiments.common` re-exports :func:`canonical_json` for
backwards compatibility.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from .errors import ExperimentError

__all__ = ["canonical_json", "derive_seed", "ordered_sum"]


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


def derive_seed(base_seed: int, *labels: Any) -> int:
    """A 63-bit seed derived from ``base_seed`` and identity labels.

    Deterministic across processes and platforms (SHA-256, no hash
    randomization), and collision-resistant enough that no two sweep
    cells, chaos plans or model substreams share RNG state.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode("ascii"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(str(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big") % (2 ** 63)
