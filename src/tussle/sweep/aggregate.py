"""Seed-axis aggregation: from a cell matrix to robustness verdicts.

The paper's claims are qualitative, so the unit of evidence is not one
blessed seed but a *fraction of seeds on which the shape holds*.  This
module collapses the seed axis of a merged sweep into, per
``(experiment, parameter point)`` group:

* a per-check pass fraction ("holds on 50/50 seeds");
* per-metric summaries (min/median/mean/max across seeds) for every
  numeric table column, keyed ``"<table title>/<column>"`` with the
  per-seed scalar being the column's mean over its rows;
* a one-line robustness verdict.

Groups come out in sorted identity order and checks are rebuilt in
sorted-seed order, so the aggregate JSON inherits the sweep's
byte-reproducibility.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..canon import ordered_sum
from .progress import StreamingAggregator

__all__ = ["aggregate", "metric_scalars"]

#: Bumped when the aggregate layout changes incompatibly.
AGGREGATE_SCHEMA = 1


def _numeric(value: Any) -> Optional[float]:
    """The cell's float value, or None for bools / None / non-numbers.

    NaN and infinities are treated as missing: they cannot survive the
    canonical-JSON serialization of the aggregate document, and a
    single poisoned row must not erase a whole column's summary.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    value = float(value)
    if not math.isfinite(value):
        return None
    return value


def metric_scalars(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-metric scalar for one seed: column mean per numeric column."""
    scalars: Dict[str, float] = {}
    for table in result["tables"]:
        for column in table["columns"]:
            values = [v for v in (_numeric(row.get(column))
                                  for row in table["rows"]) if v is not None]
            if values:
                scalars[f"{table['title']}/{column}"] = (
                    ordered_sum(values) / len(values))
    return scalars


def aggregate(cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Collapse the seed axis of merged sweep payloads.

    A fold of ``cells`` (normally ``SweepReport.cells``) through
    :class:`~tussle.sweep.progress.StreamingAggregator`, so a batch
    document and a streaming snapshot are one computation.
    """
    streaming = StreamingAggregator()
    for cell in cells:
        streaming.fold(cell)
    return streaming.snapshot()
