"""F-series rules: whole-program flow analysis.

Unlike the D/E/X families (single-file, syntactic), every F rule is
*interprocedural*: it is evaluated over the project-wide symbol table
and call graph that :mod:`tussle.lint.flow` links from the per-file
summaries of the same lint run.  The three analyses are seed provenance
(F201-F204), purity inference (F205-F206) and worker safety
(F207-F208).
"""

from __future__ import annotations

from ..findings import Rule, register_rule

__all__ = ["FLOW_RULES",
           "F201", "F202", "F203", "F204",
           "F205", "F206", "F207", "F208"]

F201 = register_rule(Rule(
    "F201", "rng-untraced-seed",
    "RNG constructed from a value that never traces to an explicit seed",
    "Every Random/default_rng instance must trace back through the call "
    "graph to an explicit seed parameter, a literal, or a registered "
    "substream derivation (derive_seed/digest63/rng.getrandbits). A "
    "generator built with no seed, with None, or as random.SystemRandom "
    "draws from OS entropy, so two runs diverge; a seed laundered through "
    "an untraceable variable hides the same nondeterminism one call away.",
))
F202 = register_rule(Rule(
    "F202", "rng-shared-stream",
    "one RNG stream aliased into multiple subsystems",
    "Passing the same generator into two subsystems couples their draw "
    "sequences: adding one draw in subsystem A silently reorders every "
    "draw in subsystem B. Derive an independent substream per subsystem "
    "with derive_seed instead.",
))
F203 = register_rule(Rule(
    "F203", "rng-crosses-executor",
    "RNG object shipped across an executor/process boundary",
    "A generator pickled into a worker forks its state: parent and child "
    "continue the same stream independently and the merged output depends "
    "on worker scheduling. Workers must construct their own RNG from a "
    "derived seed in the task payload.",
))
F204 = register_rule(Rule(
    "F204", "rng-default-argument",
    "RNG constructed in a parameter default",
    "A default like `def f(rng=Random(0))` builds ONE generator at def "
    "time, silently shared by every call that omits the argument — state "
    "bleeds between calls and between tests. Default to None and "
    "construct from an explicit seed inside the body.",
))
F205 = register_rule(Rule(
    "F205", "impure-kernel-contract",
    "function in a pure-contract module has inferred side effects",
    "econ/decision.py and scale/kernels.py are the bit-parity contract "
    "between the scalar and vectorized backends; they must stay pure "
    "functions of their inputs. A mutation, clock read, or IO two calls "
    "down breaks parity in ways the parity gate only detects after the "
    "fact.",
))
F206 = register_rule(Rule(
    "F206", "unverifiable-kernel-contract",
    "pure-contract function calls code whose purity cannot be established",
    "The purity guarantee is only as strong as the analyzer's ability to "
    "see through every call. A call into unresolvable/unknown code inside "
    "a pure-contract module means the contract is asserted, not checked — "
    "route the work through resolvable project code or a known-pure "
    "library call.",
))
F207 = register_rule(Rule(
    "F207", "worker-global-mutation",
    "worker-reachable code writes module-level state",
    "Sweep workers run in forked/spawned processes; a write to module "
    "state inside a worker is lost on exit or, worse, visible only on "
    "some executors — results then depend on worker count. All worker "
    "output must flow through the returned payload into the "
    "deterministic merge.",
))
F208 = register_rule(Rule(
    "F208", "worker-unpicklable-capture",
    "unpicklable callable (lambda/nested function) shipped to a worker",
    "Lambdas and nested functions cannot be pickled under the spawn start "
    "method, so code that passes one across an executor boundary works on "
    "fork-platforms only and dies on others. Ship a module-level function "
    "and put per-call state in the (JSON-safe) task payload.",
))

FLOW_RULES = (F201, F202, F203, F204, F205, F206, F207, F208)
