"""Analysis driver: collect files, parse once, run every rule family.

One run parses each file into a :class:`~tussle.lint.context.ModuleInfo`,
runs the single-file D rules and the project-level E/X rules over those
parses, extracts the flow summaries from the same ASTs, links them into
a :class:`~tussle.lint.flow.project.Program` and runs the F rules.  Only
then are inline suppressions and the stale-suppression audit (X303)
applied, once, over every finding.

The engine is deliberately import-free with respect to the code under
analysis — everything is AST-level, so linting a module never executes
it (the dynamic counterpart lives in :mod:`tussle.lint.seedcheck`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..errors import LintError
from .api import check_api_invariants
from .conformance import check_experiment_conformance
from .context import ModuleInfo, ProjectContext, parse_module
from .determinism import check_module_determinism
from .findings import Finding, Rule, register_rule
from .flow.project import Program
from .flow.purity import check_purity, infer_effects, kernel_candidates
from .flow.rngflow import check_rng_flow
from .flow.summaries import extract_summary
from .flow.workersafety import check_worker_safety
from .reach import check_reachability

__all__ = ["LintReport", "collect_files", "find_repo_root", "run_lint",
           "check_stale_suppressions"]

#: Directories never scanned (generated or foreign code).
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "build", "dist",
              "tussle.egg-info"}

X303 = register_rule(Rule(
    "X303", "stale-suppression",
    "`# lint: disable` comment suppresses nothing",
    "A suppression that no longer matches any finding is a hole waiting "
    "to hide the next real one, and it misrepresents the file as having "
    "a known exception. Remove the comment once the finding is fixed. "
    "Only the `lint: disable` form is audited; `# noqa` belongs to other "
    "tools.",
))
X304 = register_rule(Rule(
    "X304", "broken-source",
    "source file cannot be parsed for analysis",
    "A file the analyzer cannot read (syntax error, non-UTF-8 bytes, "
    "vanished between discovery and parse) is a blind spot: every rule "
    "silently skips it. The engine reports the failure as a finding so "
    "the gate stays honest instead of crashing or ignoring the file.",
))


@dataclass
class LintReport:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Pure netsim/routing functions eligible for kernel extraction.
    kernel_candidates: List[Dict[str, Any]] = field(default_factory=list)
    #: The linked whole-program view the F rules ran over.
    program: Optional[Program] = None

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def clean(self) -> bool:
        return not self.active

    def to_dict(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.active],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "kernel_candidates": list(self.kernel_candidates),
            "clean": self.clean,
        }


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of .py files."""
    files: List[Path] = []
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    files.append(candidate)
        else:
            raise LintError(f"no such file or directory: {path}")
    # De-duplicate while preserving order.
    unique: List[Path] = []
    seen = set()
    for item in files:
        resolved = item.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(item)
    return unique


def find_repo_root(start: Path) -> Optional[Path]:
    """Nearest ancestor holding pyproject.toml/setup.py (for E204)."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file() or \
                (candidate / "setup.py").is_file():
            return candidate
    return None


def check_stale_suppressions(info: ModuleInfo) -> List[Finding]:
    """X303: ``# lint: disable`` comments that suppressed nothing this run.

    Every rule family has run before the audit, so a comment naming any
    rule id — or a bare one — is stale exactly when no finding on its
    line consumed it.

    X303 findings are deliberately *not* subject to inline suppression:
    the comment under audit must not be able to veto its own audit.
    """
    findings: List[Finding] = []
    path = str(info.path)
    for line in sorted(info.disable_comments):
        ids = info.disable_comments[line]
        if ids is None:
            if not any(used_line == line
                       for used_line, _ in info.used_suppressions):
                findings.append(Finding(
                    X303.rule_id, path, line, 1,
                    "bare `# lint: disable` suppresses nothing on this "
                    "line; remove the stale comment",
                ))
            continue
        for rule_id in sorted(ids):
            if (line, rule_id) not in info.used_suppressions:
                findings.append(Finding(
                    X303.rule_id, path, line, 1,
                    f"`# lint: disable={rule_id}` suppresses nothing on "
                    "this line; remove the stale comment",
                ))
    return findings


def run_lint(
    paths: Sequence[Path],
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Analyze ``paths`` with every rule family and return every finding.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    select:
        Rule-id prefixes to keep (e.g. ``["D"]`` or ``["D106", "X"]``);
        None keeps everything.
    """
    files = collect_files([Path(p) for p in paths])
    if not files:
        raise LintError(f"no python files found under {list(map(str, paths))}")

    modules: List[ModuleInfo] = []
    findings: List[Finding] = []
    for path in files:
        try:
            modules.append(parse_module(path))
        except LintError as exc:
            # Unparseable file: a structured X304 finding, never a crash.
            findings.append(Finding(X304.rule_id, str(path), 1, 1, str(exc)))
    context = ProjectContext(modules=modules,
                             repo_root=find_repo_root(files[0]))

    for info in modules:
        findings.extend(check_module_determinism(info))
    findings.extend(check_experiment_conformance(context))
    findings.extend(check_api_invariants(context))
    findings.extend(check_reachability(context))

    program = Program(extract_summary(info.path, info.tree)
                      for info in modules)
    effects = infer_effects(program)
    findings.extend(check_rng_flow(program))
    findings.extend(check_purity(program, effects))
    findings.extend(check_worker_safety(program, effects))

    by_path = {str(info.path): info for info in modules}
    for finding in findings:
        info = by_path.get(finding.path)
        if info is not None and info.is_suppressed(finding.rule_id,
                                                   finding.line):
            finding.suppressed = True
            finding.suppression_source = "inline"
            info.used_suppressions.add((finding.line, finding.rule_id))
    # Audit suppression comments only after every finding has had its
    # chance to consume them.
    for info in modules:
        findings.extend(check_stale_suppressions(info))

    if select:
        findings = [f for f in findings if f.rule_id.startswith(tuple(select))]
    report = LintReport(findings=findings, files_scanned=len(files),
                        kernel_candidates=kernel_candidates(program, effects),
                        program=program)
    report.findings.sort(key=Finding.sort_key)
    return report
