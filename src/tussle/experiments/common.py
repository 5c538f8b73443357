"""Shared experiment harness: tables, results, shape checks.

The paper has no numeric tables to match, so every experiment here
reports (a) a table of measured rows and (b) an explicit *shape check* —
a predicate over the rows asserting the paper's qualitative claim (who
wins, what direction, where the crossover falls). Benchmarks print the
table and the check verdict; tests assert the check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..canon import canonical_json
from ..errors import ExperimentError

__all__ = ["Table", "ShapeCheck", "ExperimentResult", "canonical_json"]


class Table:
    """A printable table of experiment rows."""

    def __init__(self, title: str, columns: Sequence[str]):
        if not columns:
            raise ExperimentError("table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[Dict[str, Any]] = []

    def add_row(self, **values: Any) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ExperimentError(f"row has unknown columns {sorted(unknown)}")
        self.rows.append(values)

    def column(self, name: str) -> List[Any]:
        if name not in self.columns:
            raise ExperimentError(f"unknown column {name!r}")
        return [row.get(name) for row in self.rows]

    @staticmethod
    def _format_cell(value: Any) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return f"{value:.3f}"
        if value is None:
            return "-"
        return str(value)

    def format(self) -> str:
        """Render as an aligned plain-text table."""
        header = list(self.columns)
        body = [[self._format_cell(row.get(col)) for col in header]
                for row in self.rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form: title, columns, rows."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "rows": [{col: row.get(col) for col in self.columns}
                     for row in self.rows],
        }

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ShapeCheck:
    """One qualitative claim and whether the measurements support it."""

    claim: str
    holds: bool
    detail: str = ""


@dataclass
class ExperimentResult:
    """Everything one experiment produces.

    ``metrics`` is an optional observability snapshot (see
    :mod:`tussle.obs`) attached by runners that install a metrics
    registry; it is descriptive side-channel data and deliberately not
    part of the seedcheck fingerprint.
    """

    experiment_id: str
    title: str
    paper_claim: str
    tables: List[Table] = field(default_factory=list)
    checks: List[ShapeCheck] = field(default_factory=list)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def shape_holds(self) -> bool:
        """Do all shape checks pass?"""
        return all(check.holds for check in self.checks)

    def add_check(self, claim: str, holds: bool, detail: str = "") -> None:
        self.checks.append(ShapeCheck(claim=claim, holds=holds, detail=detail))

    def format(self) -> str:
        lines = [f"=== {self.experiment_id}: {self.title} ===",
                 f"Paper claim: {self.paper_claim}", ""]
        for table in self.tables:
            lines.append(table.format())
            lines.append("")
        for check in self.checks:
            verdict = "HOLDS" if check.holds else "FAILS"
            lines.append(f"[{verdict}] {check.claim}")
            if check.detail:
                lines.append(f"         {check.detail}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form, including metrics when attached."""
        payload: Dict[str, Any] = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "shape_holds": self.shape_holds,
            "tables": [table.to_dict() for table in self.tables],
            "checks": [
                {"claim": c.claim, "holds": c.holds, "detail": c.detail}
                for c in self.checks
            ],
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    def to_json(self) -> str:
        """Canonical JSON text (see :func:`canonical_json`).

        It must be byte-identical for two runs of the same experiment at
        the same seed: perfbench and the peering determinism tests pin
        its sha256.
        """
        return canonical_json(self.to_dict())

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.format())


def monotone_decreasing(values: Sequence[float], strict: bool = False) -> bool:
    """Is the sequence (weakly or strictly) decreasing?"""
    pairs = zip(values, values[1:])
    if strict:
        return all(a > b for a, b in pairs)
    return all(a >= b - 1e-9 for a, b in pairs)


def monotone_increasing(values: Sequence[float], strict: bool = False) -> bool:
    pairs = zip(values, values[1:])
    if strict:
        return all(a < b for a, b in pairs)
    return all(a <= b + 1e-9 for a, b in pairs)


__all__ += ["monotone_decreasing", "monotone_increasing"]
