"""Dynamic determinism harness: run each experiment twice, diff results.

The static D- and F-series rules catch the *causes* of nondeterminism
(global RNG state, untraced seeds, clock reads, set iteration); this
harness catches the *symptom* — it runs every registered experiment
twice at the same seed and asserts the two :class:`ExperimentResult`
objects are identical down to every table cell and shape-check verdict.

Run it as ``python -m tussle.lint.seedcheck [IDS...]``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..errors import LintError
from ..obs.diff import first_divergence

__all__ = ["SeedCheckOutcome", "fingerprint", "run_seedcheck", "main"]


def fingerprint(result: Any) -> Tuple:
    """Hashable, order-sensitive digest of an ExperimentResult.

    Captures everything the harness prints: ids, titles, table columns,
    every row cell, and every shape-check verdict.  Floats are kept exact
    (bit-reproducibility, not approximate equality, is the contract).
    """
    tables = tuple(
        (
            table.title,
            tuple(table.columns),
            tuple(
                tuple((col, _freeze(row.get(col))) for col in table.columns)
                for row in table.rows
            ),
        )
        for table in result.tables
    )
    checks = tuple(
        (check.claim, check.holds, check.detail) for check in result.checks
    )
    return (result.experiment_id, result.title, result.paper_claim,
            tables, checks)


def _freeze(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return tuple(sorted(map(repr, value)))
    return value


@dataclass
class SeedCheckOutcome:
    """Verdict of one experiment's double run."""

    experiment_id: str
    seed: Optional[int]
    deterministic: bool
    shape_holds: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.deterministic

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment_id,
            "seed": self.seed,
            "deterministic": self.deterministic,
            "shape_holds": self.shape_holds,
            "detail": self.detail,
        }


def _records(print_: Tuple) -> List[Tuple[str, str]]:
    """A fingerprint as ``(where, JSON line)`` records.

    The header fields, then per table its title and columns followed by
    one record per row, then one record per check.  ``repr`` stands in
    for values JSON cannot hold and NaN/inf are allowed: a diagnostic
    must not raise on the values it is diagnosing.
    """
    experiment_id, title, paper_claim, tables, checks = print_
    records: List[Tuple[str, Any]] = [(
        "header", {"experiment_id": experiment_id, "title": title,
                   "paper_claim": paper_claim})]
    for table_title, columns, rows in tables:
        where = f"table {table_title!r}"
        records.append((where, {"title": table_title,
                                "columns": list(columns)}))
        records.extend((f"{where} row {index}", dict(row))
                       for index, row in enumerate(rows))
    records.extend((f"check {claim!r}", {"claim": claim, "holds": holds,
                                         "detail": detail})
                   for claim, holds, detail in checks)
    return [(where, json.dumps(record, sort_keys=True, default=repr))
            for where, record in records]


def _divergence_detail(a: Tuple, b: Tuple) -> str:
    """Name the first differing fingerprint record and its fields."""
    a_records, b_records = _records(a), _records(b)
    divergence = first_divergence([line for _, line in a_records],
                                  [line for _, line in b_records])
    if divergence is None:
        return ""
    where = (a_records if divergence.index < len(a_records)
             else b_records)[divergence.index][0]
    detail = f"first divergence at record {divergence.index} ({where})"
    if divergence.kind == "length":
        return f"{detail}: present in one run only"
    if divergence.changed_fields:
        detail += f": {', '.join(divergence.changed_fields)} changed"
    return detail


def run_seedcheck(
    experiment_ids: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    runs: int = 2,
) -> List[SeedCheckOutcome]:
    """Run each selected experiment ``runs`` times; compare fingerprints.

    When ``seed`` is None each experiment runs at its own default seed;
    otherwise ``seed=seed`` is passed explicitly (every registered
    experiment accepts a seed keyword — rule E201 enforces that).
    """
    # Imported lazily so `python -m tussle.lint` stays static-only.
    from ..experiments import ALL_EXPERIMENTS

    if runs < 2:
        raise LintError("seedcheck needs at least two runs to compare")
    selected = sorted(ALL_EXPERIMENTS) if not experiment_ids else [
        identifier.upper() for identifier in experiment_ids
    ]
    unknown = [i for i in selected if i not in ALL_EXPERIMENTS]
    if unknown:
        raise LintError(
            f"unknown experiments {unknown}; "
            f"choose from {', '.join(sorted(ALL_EXPERIMENTS))}"
        )

    outcomes: List[SeedCheckOutcome] = []
    for identifier in selected:
        entry = ALL_EXPERIMENTS[identifier]
        kwargs = {} if seed is None else {"seed": seed}
        effective_seed = seed
        if seed is None:
            default = inspect.signature(entry).parameters.get("seed")
            if default is not None and default.default is not inspect.Parameter.empty:
                effective_seed = default.default
        results = [entry(**kwargs) for _ in range(runs)]
        first, *others = [fingerprint(r) for r in results]
        differing = [p for p in others if p != first]
        deterministic = not differing
        detail = "" if deterministic else _divergence_detail(first,
                                                              differing[0])
        outcomes.append(SeedCheckOutcome(
            experiment_id=identifier,
            seed=effective_seed,
            deterministic=deterministic,
            shape_holds=all(r.shape_holds for r in results),
            detail=detail,
        ))
    return outcomes


def format_outcomes(outcomes: Sequence[SeedCheckOutcome]) -> str:
    lines = []
    for outcome in outcomes:
        verdict = "DETERMINISTIC" if outcome.ok else "DIVERGENT"
        seed_note = "default seed" if outcome.seed is None else f"seed={outcome.seed}"
        line = f"{outcome.experiment_id}: {verdict} ({seed_note})"
        if outcome.detail:
            line += f" — {outcome.detail}"
        lines.append(line)
    failures = sum(1 for o in outcomes if not o.ok)
    lines.append(
        f"{len(outcomes)} experiments double-run, {failures} divergent"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tussle.lint.seedcheck",
        description=("Run each registered experiment twice at the same seed "
                     "and assert identical result tables."),
    )
    parser.add_argument("experiments", nargs="*", metavar="ID",
                        help="experiment ids (default: all registered)")
    parser.add_argument("--seed", type=int, default=None,
                        help="explicit seed passed to every experiment "
                             "(default: each experiment's own default)")
    parser.add_argument("--runs", type=int, default=2,
                        help="runs to compare per experiment (default 2)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)
    try:
        outcomes = run_seedcheck(args.experiments or None, seed=args.seed,
                                 runs=args.runs)
    except LintError as exc:
        print(f"seedcheck: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([o.to_dict() for o in outcomes], indent=2))
    else:
        print(format_outcomes(outcomes))
    return 0 if all(o.ok for o in outcomes) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via main()
    sys.exit(main())
