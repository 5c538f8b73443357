"""Static determinism & simulation-invariant analyzer (``python -m tussle.lint``).

The paper's argument is that outcomes depend on who moves and in what
order — so a tussle simulation whose results drift with RNG state, dict
ordering, or wall-clock time reproduces noise, not the paper.  This
package enforces that discipline with four rule families, all evaluated
by one run (:func:`run_lint`) over one parse of each file:

``D1xx`` — determinism
    No global RNG state, no wall-clock or environment reads, no
    iteration over unordered sets into ordering-sensitive sinks, no
    hidden-default RNG fallbacks.
``E2xx`` — experiment conformance
    Every experiment module exposes ``run_*(seed=...) ->
    ExperimentResult``, is registered in ``ALL_EXPERIMENTS``, and has a
    benchmark and test counterpart.
``X3xx`` — API surface
    Raised exceptions derive from the :mod:`tussle.errors` taxonomy,
    ``__all__`` matches what modules actually define and every module is
    imported from some ``__main__`` entry point (X305); X303/X304 keep
    the analyzer itself honest (stale suppressions, unparseable files).
``F2xx`` — whole-program flow (:mod:`tussle.lint.flow`)
    Interprocedural seed provenance (every generator traces to an
    explicit seed), purity inference for the bit-parity kernel
    contract, and worker safety for code reachable from the sweep
    executors.  ``--kernel-candidates`` also lists the pure
    netsim/routing functions the purity pass found.

The static pass never imports the code under analysis; its dynamic
sibling :mod:`tussle.lint.seedcheck` double-runs each experiment at a
fixed seed and asserts bit-identical result tables.

See DESIGN.md ("Determinism contract & lint rule catalog") for the full
rule list and the blessed idioms each rule steers toward.
"""

from .engine import LintReport, collect_files, find_repo_root, run_lint
from .findings import RULE_REGISTRY, Finding, Rule, rule_ids

# Importing the rule modules registers their rules, so this package
# keeps its eager imports.  The dynamic seedcheck harness is
# intentionally NOT imported here: `python -m tussle.lint.seedcheck`
# must be able to execute the module fresh (runpy warns when it is
# already imported).  Import tussle.lint.seedcheck directly when you
# need it.
from . import api, conformance, determinism  # noqa: F401  isort: skip

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "RULE_REGISTRY",
    "collect_files",
    "find_repo_root",
    "rule_ids",
    "run_lint",
]
