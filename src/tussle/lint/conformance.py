"""E-series rules: experiment-harness conformance.

Every experiment module must be drivable by the shared harnesses — the
CLI, the benchmark suite, the determinism seed-check — which is only
possible if each one exposes the same contract: a single ``run_*`` entry
point with an explicit ``seed`` keyword returning an
:class:`~tussle.experiments.common.ExperimentResult`, registered in
``tussle.experiments.ALL_EXPERIMENTS``, with a test counterpart on disk.
The benchmark suite is parametrized over the registry, so registration
alone gives an experiment its benchmark.

The modules checked are found by content, not by a filename pattern
that a new naming scheme could silently escape: every module the
registry imports a ``run_*`` from, plus every module in the experiments
package that defines a top-level ``run_*`` — the latter is how a module
whose import was forgotten still gets its E202 finding.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .context import ModuleInfo, ProjectContext, dotted_name
from .findings import Finding, Rule, register_rule

__all__ = ["check_experiment_conformance", "CONFORMANCE_RULES"]

E201 = register_rule(Rule(
    "E201", "experiment-run-contract",
    "experiment module must expose one run_*(seed=...) -> ExperimentResult",
    "The CLI, benchmarks, and the seed-check harness all drive experiments "
    "through a uniform entry point; a missing seed parameter makes the "
    "double-run determinism check impossible to express.",
))
E202 = register_rule(Rule(
    "E202", "experiment-registered",
    "experiment entry point must be registered in ALL_EXPERIMENTS",
    "Unregistered experiments silently drop out of the CLI, the summary "
    "gate, and the seed-check harness.",
))
E204 = register_rule(Rule(
    "E204", "experiment-tested",
    "experiment must be exercised by a test module",
    "Shape checks are the repository's headline assertions; an experiment "
    "no test imports can silently lose the paper's shape.",
))

CONFORMANCE_RULES = (E201, E202, E204)


def _experiment_modules(context: ProjectContext) -> List[ModuleInfo]:
    """Experiments-package modules the registry imports or that define run_*."""
    init = context.module_by_relpath("experiments/__init__.py")
    if init is None:
        return []
    imported = {
        node.module for node in init.tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        and node.module is not None
        and any(alias.name.startswith("run_") for alias in node.names)
    }
    imported.update(entry.module.rsplit(".", 1)[-1]
                    for entry in init.table_entries() if entry.registry)
    return [info for info in context.modules
            if info.path.parent == init.path.parent
            and (info.path.stem in imported or _defines_run_entry(info))]


def _defines_run_entry(info: ModuleInfo) -> bool:
    return any(isinstance(node, ast.FunctionDef)
               and node.name.startswith("run_") for node in info.tree.body)


def _run_functions(info: ModuleInfo) -> List[ast.FunctionDef]:
    return [
        node for node in info.tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("run")
    ]


def _has_seed_parameter(fn: ast.FunctionDef) -> bool:
    names = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    return "seed" in names


def _returns_experiment_result(fn: ast.FunctionDef) -> bool:
    if fn.returns is None:
        return False
    annotation = dotted_name(fn.returns)
    if annotation is None and isinstance(fn.returns, ast.Constant):
        annotation = str(fn.returns.value)
    return annotation is not None and annotation.split(".")[-1] == "ExperimentResult"


def _registered_run_names(context: ProjectContext) -> Optional[Set[str]]:
    """Function names registered in ALL_EXPERIMENTS, from the package __init__:
    a registry table's entries, or a dict literal of imported functions."""
    init = context.module_by_relpath("experiments/__init__.py")
    if init is None:
        return None
    for node in ast.walk(init.tree):
        if not (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "ALL_EXPERIMENTS"
                        for t in node.targets)):
            continue
        if isinstance(node.value, ast.Call):
            return {entry.name for entry in init.table_entries()
                    if entry.registry}
        if isinstance(node.value, ast.Dict):
            names: Set[str] = set()
            for value in node.value.values:
                name = dotted_name(value)
                if name is not None:
                    names.add(name.split(".")[-1])
            return names
    return None


def _tests_corpus(context: ProjectContext) -> Optional[str]:
    """Concatenated text of every test module, for reference checks."""
    tests_dir = context.tests_dir
    if tests_dir is None:
        return None
    chunks: List[str] = []
    for path in sorted(tests_dir.rglob("test_*.py")):
        try:
            chunks.append(path.read_text(encoding="utf-8"))
        except OSError:
            continue
    return "\n".join(chunks)


def check_experiment_conformance(context: ProjectContext) -> List[Finding]:
    findings: List[Finding] = []
    experiments = _experiment_modules(context)
    if not experiments:
        return findings
    registered = _registered_run_names(context)
    tests_corpus = _tests_corpus(context)

    for info in experiments:
        path = str(info.path)
        run_fns = _run_functions(info)

        # E201 — exactly one run_* with a seed kwarg returning ExperimentResult.
        if len(run_fns) != 1:
            findings.append(Finding(
                E201.rule_id, path, 1, 1,
                f"expected exactly one run_* entry point, found "
                f"{len(run_fns)} ({', '.join(f.name for f in run_fns) or 'none'})",
            ))
            continue
        entry = run_fns[0]
        if not _has_seed_parameter(entry):
            findings.append(Finding(
                E201.rule_id, path, entry.lineno, entry.col_offset + 1,
                f"`{entry.name}` must accept a `seed` keyword so the "
                "seed-check harness can drive it",
            ))
        if not _returns_experiment_result(entry):
            findings.append(Finding(
                E201.rule_id, path, entry.lineno, entry.col_offset + 1,
                f"`{entry.name}` must be annotated `-> ExperimentResult`",
            ))

        # E202 — registered in ALL_EXPERIMENTS.
        if registered is not None and entry.name not in registered:
            findings.append(Finding(
                E202.rule_id, path, entry.lineno, entry.col_offset + 1,
                f"`{entry.name}` is not registered in "
                "tussle.experiments.ALL_EXPERIMENTS",
            ))

        # E204 — some test references the entry point (directly, or via the
        # registry-driven parametrized suite when the experiment is registered).
        if tests_corpus is not None:
            directly = entry.name in tests_corpus
            via_registry = (
                "ALL_EXPERIMENTS" in tests_corpus
                and registered is not None
                and entry.name in registered
            )
            if not directly and not via_registry:
                findings.append(Finding(
                    E204.rule_id, path, entry.lineno, entry.col_offset + 1,
                    f"no test module references `{entry.name}` (directly or "
                    "via the ALL_EXPERIMENTS parametrized suite)",
                ))
    return findings
