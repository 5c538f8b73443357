"""Baseline (grandfathering) support for the lint gate.

A baseline file records findings that existed when the gate was turned
on, so the CI check can be blocking for *new* findings while the old
ones are burned down.  Entries match on ``(rule, path)`` with a count —
line numbers drift too much under refactoring to key on them — so fixing
one grandfathered finding in a file immediately tightens the budget for
that file.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

from ..errors import LintError
from .findings import Finding

__all__ = ["Baseline", "load_baseline", "apply_baseline", "update_baseline"]

_VERSION = 1


class Baseline:
    """Budget of grandfathered findings, keyed by (rule, path)."""

    def __init__(self, budgets: Dict[Tuple[str, str], int]):
        self.budgets = dict(budgets)

    @classmethod
    def empty(cls) -> "Baseline":
        return cls({})

    @classmethod
    def from_findings(cls, findings: List[Finding]) -> "Baseline":
        counts = Counter(
            (f.rule_id, f.path) for f in findings if not f.suppressed
        )
        return cls(dict(counts))

    def to_payload(self) -> Dict:
        entries = [
            {"rule": rule, "path": path, "count": count}
            for (rule, path), count in sorted(self.budgets.items())
        ]
        return {"version": _VERSION, "entries": entries}


def load_baseline(path: Path) -> Baseline:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise LintError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LintError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("version") != _VERSION:
        raise LintError(
            f"baseline {path} has unsupported format "
            f"(expected version {_VERSION})"
        )
    budgets: Dict[Tuple[str, str], int] = {}
    for entry in payload.get("entries", []):
        try:
            key = (entry["rule"], entry["path"])
            count = int(entry.get("count", 1))
        except (KeyError, TypeError, ValueError) as exc:
            raise LintError(f"malformed baseline entry {entry!r}") from exc
        budgets[key] = budgets.get(key, 0) + count
    return Baseline(budgets)


def apply_baseline(findings: List[Finding],
                   baseline: Baseline) -> Dict[Tuple[str, str], int]:
    """Mark findings covered by the baseline budget as suppressed (in place).

    Returns the *stale* portion of the budget: (rule, path) entries whose
    count exceeded the findings actually present.  A non-empty return
    means the baseline grandfathers findings that no longer exist and
    should be rewritten (``--update-baseline``).
    """
    remaining = dict(baseline.budgets)
    for finding in findings:
        if finding.suppressed:
            continue
        key = (finding.rule_id, finding.path)
        if remaining.get(key, 0) > 0:
            remaining[key] -= 1
            finding.suppressed = True
            finding.suppression_source = "baseline"
    return {key: count for key, count in remaining.items() if count > 0}


def update_baseline(path: Path, findings: List[Finding]) -> Baseline:
    """Rewrite the baseline from current findings, pruning stale entries.

    Findings suppressed by the *old* baseline stay grandfathered (they
    still exist in the tree); findings suppressed inline do not re-enter
    the budget; entries for findings that have been fixed vanish.
    """
    keep = [f for f in findings
            if not f.suppressed or f.suppression_source == "baseline"]
    baseline = Baseline.from_findings(
        [Finding(f.rule_id, f.path, f.line, f.column, f.message)
         for f in keep])
    path.write_text(json.dumps(baseline.to_payload(), indent=2) + "\n",
                    encoding="utf-8")
    return baseline
