"""Finding and rule metadata types for the :mod:`tussle.lint` analyzer.

A *rule* is a named invariant with a stable identifier (``D101``,
``E201``, ...); a *finding* is one concrete violation of a rule at a
source location.  Rules register themselves in :data:`RULE_REGISTRY` at
import time so the CLI can enumerate them (``--list-rules``) without
hard-coding the catalog in two places.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import LintError

__all__ = [
    "Rule",
    "Finding",
    "RULE_REGISTRY",
    "register_rule",
    "rule_ids",
]


@dataclass(frozen=True)
class Rule:
    """Static metadata for one lint rule.

    Attributes
    ----------
    rule_id:
        Stable identifier: a family letter plus a number.  ``D`` rules
        guard determinism, ``E`` rules guard experiment conformance,
        ``F`` rules check whole-program flow (seed provenance, purity,
        worker safety), ``X`` rules guard the public API surface.  One
        lint run evaluates all four families.
    name:
        Short kebab-case slug used in text output.
    summary:
        One-line description of the invariant the rule enforces.
    rationale:
        Why the invariant matters for a reproducible tussle simulation.
    """

    rule_id: str
    name: str
    summary: str
    rationale: str = ""

    @property
    def family(self) -> str:
        return self.rule_id[:1]


#: All known rules, keyed by rule id.  Populated by :func:`register_rule`
#: when the rule modules are imported.
RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the registry; duplicate ids are a config error."""
    if rule.rule_id in RULE_REGISTRY:
        raise LintError(f"duplicate lint rule id {rule.rule_id!r}")
    RULE_REGISTRY[rule.rule_id] = rule
    return rule


def rule_ids() -> List[str]:
    """All registered rule ids, sorted."""
    return sorted(RULE_REGISTRY)


@dataclass
class Finding:
    """One violation of one rule at one source location."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str
    suppressed: bool = False
    suppression_source: Optional[str] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.column}"

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
        }
        if self.suppressed:
            data["suppressed"] = True
            data["suppression_source"] = self.suppression_source
        if self.extra:
            data["extra"] = dict(self.extra)
        return data

    def format(self) -> str:
        rule = RULE_REGISTRY.get(self.rule_id)
        slug = f" [{rule.name}]" if rule else ""
        return f"{self.location()}: {self.rule_id}{slug} {self.message}"

    def sort_key(self):
        return (self.path, self.line, self.column, self.rule_id)
