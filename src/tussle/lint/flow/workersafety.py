"""Worker-safety analysis: rules F207-F208.

Sweep workers execute in forked/spawned processes.  Code reachable from
the worker entry points must not write module-level state (the write is
lost on process exit, or — under fork — visible on some platforms and
not others, making results depend on worker count), and nothing
unpicklable may cross the executor boundary (lambdas and nested
functions pickle under *fork* but die under *spawn*).

Reachability starts from the executor entry points plus every
experiment ``run_*`` function and every function a registry table
names: ``run_cell`` dispatches through the ``ALL_EXPERIMENTS`` registry
dynamically, so the call graph cannot see those edges and we add them
synthetically.
"""

from __future__ import annotations

from typing import Dict, List

from ..findings import Finding
from .project import Program
from .purity import EffectSummary
from .rngflow import _is_boundary_site, _unpicklable_refs
from .rules import F207, F208

__all__ = ["WORKER_ENTRY_POINTS", "check_worker_safety", "worker_entries"]

#: Statically-known worker entry points (see sweep/executors.py).
WORKER_ENTRY_POINTS = (
    "tussle.sweep.executors.run_cell",
    "tussle.sweep.executors._resilient_worker",
)


def worker_entries(program: Program) -> List[str]:
    """Entry points plus synthetic edges for registry-dispatched targets."""
    entries = [e for e in WORKER_ENTRY_POINTS if e in program.functions]
    for qual in program.functions:
        # Experiments are invoked via ALL_EXPERIMENTS.get(name)(seed=...),
        # invisible to static call resolution.
        if qual.startswith("tussle.experiments.") and \
                qual.rsplit(".", 1)[-1].startswith("run_"):
            entries.append(qual)
    for module in sorted(program.modules):
        entries.extend(qual for qual in program.modules[module]["registry"]
                       if qual in program.functions and qual not in entries)
    return entries


def check_worker_safety(program: Program,
                        effects: Dict[str, EffectSummary]) -> List[Finding]:
    """Evaluate F207-F208 over the linked program."""
    findings: List[Finding] = []
    reachable = program.reachable_from(worker_entries(program))

    for qual, fn, path in program.iter_functions():
        # F207 — flag the function that performs the write itself so the
        # finding points at the offending module, not the worker entry.
        if qual in reachable:
            for global_name in fn["mutations"]["globals"]:
                findings.append(Finding(
                    F207.rule_id, path, fn["line"] or 1, 1,
                    f"{qual} is reachable from a sweep worker and writes "
                    f"module-level `{global_name}`; worker state dies with "
                    "the process — return it through the task payload "
                    "instead",
                ))
        # F208 — unpicklable callables handed across an executor boundary.
        # This fires on the *shipping* side, which is typically the parent
        # process, so it applies everywhere, not just worker-reachable code.
        for site in fn["calls"]:
            if not _is_boundary_site(site):
                continue
            for expr in list(site["args"]) + list(site["kw"].values()):
                for what in _unpicklable_refs(expr):
                    findings.append(Finding(
                        F208.rule_id, path, site["line"], site["col"],
                        f"{qual} ships {what} across an executor boundary; "
                        "it cannot be pickled under the spawn start method "
                        "— use a module-level function and a JSON-safe "
                        "payload",
                    ))
    return findings
