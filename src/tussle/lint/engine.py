"""Analysis driver: collect files, parse once, run every rule family.

The engine is deliberately import-free with respect to the code under
analysis — everything is AST-level, so linting a module never executes
it (the dynamic counterpart lives in :mod:`tussle.lint.seedcheck`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from ..errors import LintError
from .api import check_api_invariants
from .baseline import Baseline, apply_baseline
from .conformance import check_experiment_conformance
from .context import ModuleInfo, ProjectContext, parse_module
from .determinism import check_module_determinism
from .findings import Finding, Rule, register_rule

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
    #: Baseline entries whose budget exceeded the findings present:
    #: [{"rule", "path", "count"}, ...].  Non-empty means the baseline
    #: is stale and the gate fails until --update-baseline rewrites it.
    stale_baseline: List[dict] = field(default_factory=list)

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def clean(self) -> bool:
        return not self.active and not self.stale_baseline

    def to_dict(self) -> dict:
        return {
            "files_scanned": self.files_scanned,
            "findings": [f.to_dict() for f in self.active],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
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


def _apply_inline_suppressions(info: ModuleInfo,
                               findings: Iterable[Finding]) -> None:
    for finding in findings:
        if info.is_suppressed(finding.rule_id, finding.line):
            finding.suppressed = True
            finding.suppression_source = "inline"
            info.used_suppressions.add((finding.line, finding.rule_id))


def check_stale_suppressions(info: ModuleInfo,
                             families: Sequence[str] = ("D", "E", "X"),
                             ) -> List[Finding]:
    """X303: ``# lint: disable`` comments that suppressed nothing this run.

    ``families`` limits the audit to rule families this run actually
    evaluated, so a file-scoped run of the D/E/X engine never flags a
    comment that exists for the flow analyzer (F rules) and vice versa.
    Bare ``# lint: disable`` comments are audited by the engine run only
    — suppress F findings by explicit id.

    X303 findings are deliberately *not* subject to inline suppression:
    the comment under audit must not be able to veto its own audit.
    """
    findings: List[Finding] = []
    path = str(info.path)
    for line in sorted(info.disable_comments):
        ids = info.disable_comments[line]
        if ids is None:
            if "X" in families and not any(
                    used_line == line
                    for used_line, _ in info.used_suppressions):
                findings.append(Finding(
                    X303.rule_id, path, line, 1,
                    "bare `# lint: disable` suppresses nothing on this "
                    "line; remove the stale comment",
                ))
            continue
        for rule_id in sorted(ids):
            if rule_id[:1] not in families:
                continue
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
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Analyze ``paths`` and return every finding.

    Parameters
    ----------
    paths:
        Files or directories to scan.
    select:
        Rule-id prefixes to keep (e.g. ``["D"]`` or ``["D106", "X"]``);
        None keeps everything.
    baseline:
        Grandfathered-finding budget; matching findings are marked
        suppressed rather than dropped, so JSON output still shows them.
    """
    files = collect_files([Path(p) for p in paths])
    if not files:
        raise LintError(f"no python files found under {list(map(str, paths))}")
    package_root = files[0].parent
    repo_root = find_repo_root(files[0])

    modules: List[ModuleInfo] = []
    broken: List[Finding] = []
    for path in files:
        try:
            modules.append(parse_module(path, package_root))
        except LintError as exc:
            # Unparseable file: a structured X304 finding, never a crash.
            broken.append(Finding(X304.rule_id, str(path), 1, 1, str(exc)))
    context = ProjectContext(package_root=package_root, modules=modules,
                             repo_root=repo_root)

    report = LintReport(files_scanned=len(files))
    report.findings.extend(broken)
    by_path = {str(info.path): info for info in modules}

    for info in modules:
        module_findings = check_module_determinism(info)
        _apply_inline_suppressions(info, module_findings)
        report.findings.extend(module_findings)

    for project_finding in (check_experiment_conformance(context)
                            + check_api_invariants(context)):
        info = by_path.get(project_finding.path)
        if info is not None:
            _apply_inline_suppressions(info, [project_finding])
        report.findings.append(project_finding)

    # Audit suppression comments only after every rule family has had its
    # chance to consume them.
    for info in modules:
        report.findings.extend(check_stale_suppressions(info))

    if select:
        prefixes = tuple(select)
        report.findings = [
            f for f in report.findings if f.rule_id.startswith(prefixes)
        ]
    if baseline is not None:
        stale = apply_baseline(report.findings, baseline)
        report.stale_baseline = [
            {"rule": rule, "path": path, "count": count}
            for (rule, path), count in sorted(stale.items())
        ]
    report.findings.sort(key=Finding.sort_key)
    return report
