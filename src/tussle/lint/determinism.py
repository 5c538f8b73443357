"""D-series rules: bit-reproducibility of simulation runs.

The paper's claims are about *who moves and in what order*; a run whose
outcome drifts with global RNG state, wall-clock time, environment
variables, or set iteration order reproduces noise rather than the
paper.  Every rule here flags a construct that makes a run depend on
process-level state instead of an explicit seed.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from .context import ModuleInfo, dotted_name, resolve_call_name
from .findings import Finding, Rule, register_rule

__all__ = ["check_module_determinism", "DETERMINISM_RULES",
           "WALL_CLOCK_ALLOWLIST", "PARALLELISM_ALLOWLIST",
           "RETRY_SLEEP_ALLOWLIST", "VECTORIZED_KERNEL_PATHS"]

D101 = register_rule(Rule(
    "D101", "global-random-call",
    "call to the module-level random.* API (shared global RNG state)",
    "Module-level random functions share one hidden Mersenne Twister; any "
    "library call that touches it changes every later draw. Construct a "
    "random.Random(seed) and pass it down instead.",
))
D102 = register_rule(Rule(
    "D102", "global-nprandom-call",
    "call to the legacy numpy.random.* API (shared global RNG state)",
    "numpy's legacy module-level RandomState is process-global. Use "
    "numpy.random.default_rng(seed) and thread the generator through.",
))
D104 = register_rule(Rule(
    "D104", "wall-clock-read",
    "wall-clock read (time.time, datetime.now, ...) inside the simulation",
    "Simulated time must come from the simulation's own clock (a round, "
    "an iteration), not the host clock; "
    "clock reads make results machine- and moment-dependent.",
))
D105 = register_rule(Rule(
    "D105", "environ-read",
    "os.environ / os.getenv read inside the simulation",
    "Environment variables are invisible inputs: the same seed would give "
    "different results on different hosts. Pass configuration explicitly.",
))
D106 = register_rule(Rule(
    "D106", "set-iteration-order",
    "iteration over a set feeding an ordering-sensitive construct",
    "Set iteration order varies across processes (hash randomization). "
    "Wrap the set in sorted(...) before iterating, listing, or sampling.",
))
D107 = register_rule(Rule(
    "D107", "rng-fallback-default",
    "hidden-default RNG fallback (`rng or Random(0)` idiom)",
    "An `or`-fallback silently pins a constant seed the caller never sees. "
    "Thread an explicit seed parameter and construct the RNG from it "
    "behind an `if rng is None:` guard.",
))
D108 = register_rule(Rule(
    "D108", "function-scope-rng-import",
    "import of an RNG module inside a function body",
    "Function-scope `import random` hides the module's dependence on "
    "randomness from readers and from this analyzer; import at module "
    "level so seeding discipline is visible.",
))
D109 = register_rule(Rule(
    "D109", "wall-clock-outside-profiler",
    "direct timing call outside the sanctioned tussle.obs.profiler module",
    "Wall-clock timing belongs to tussle.obs.profiler.Profiler, the one "
    "allowlisted consumer; its measurements are quarantined to the "
    "benchmark channel and never enter traces or results. Direct "
    "time.perf_counter/time.time calls elsewhere bypass that quarantine.",
))

D110 = register_rule(Rule(
    "D110", "parallelism-outside-executor",
    "worker pool / thread construction outside tussle.sweep.executors",
    "Parallel fan-out must go through the sweep executors, the one "
    "sanctioned parallelism site: their workers run each cell at a seed "
    "derived from the cell's identity (never shared RNG state) and the "
    "scheduler merges results in deterministic order. An ad-hoc pool or "
    "thread elsewhere reintroduces completion-order and RNG-sharing "
    "nondeterminism.",
))

D111 = register_rule(Rule(
    "D111", "population-loop-in-kernel",
    "Python-level loop over an agent population inside a vectorized kernel "
    "module",
    "Kernel modules exist to keep population work in NumPy: a Python "
    "for-loop (or comprehension) over consumers/agents reintroduces the "
    "O(N) interpreter cost the scale subsystem was built to remove, and it "
    "does so silently — the code still passes parity, just 100x slower. "
    "Loop over the handful of provider columns if you must; per-agent "
    "logic belongs in an array expression.",
))

D112 = register_rule(Rule(
    "D112", "sleep-outside-retry-site",
    "time.sleep call outside the sanctioned sweep-executor retry site",
    "A real sleep stalls the process on wall-clock time: inside the "
    "simulation it would couple results to host scheduling, and anywhere "
    "else it hides latency the profiler cannot attribute. The one "
    "sanctioned site is the resilient sweep executor's supervision loop, "
    "whose waits are quarantined from the deterministic merge. Simulated "
    "waits belong on a simulated clock / Backoff schedule instead.",
))

DETERMINISM_RULES = (D101, D102, D104, D105, D106, D107, D108, D109, D110,
                     D111, D112)

#: Modules (path suffixes, ``/``-separated) sanctioned to read the host
#: clock. The profiler quarantines wall-clock values to the benchmark
#: channel; the sweep executors use the monotonic clock solely for worker
#: timeout/backoff supervision, likewise quarantined from the
#: deterministic merge; sweep telemetry stamps its *wall channel* (and
#: only that channel — the deterministic channel is clock-free) with
#: stream offsets. D104/D109 do not apply inside them.
WALL_CLOCK_ALLOWLIST = ("tussle/obs/profiler.py",
                        "tussle/sweep/executors.py",
                        "tussle/obs/telemetry.py")

#: Modules sanctioned to construct worker pools/threads. The sweep
#: executors are the only entry: they isolate per-cell RNG state and feed
#: the scheduler's deterministic merge, so D110 does not apply inside them.
PARALLELISM_ALLOWLIST = ("tussle/sweep/executors.py",)

#: Modules sanctioned to call time.sleep (rule D112). The sweep
#: executors are the only entry: a wait there paces worker supervision
#: on the quarantined wall clock and never influences cell payloads.
RETRY_SLEEP_ALLOWLIST = ("tussle/sweep/executors.py",)

#: Modules held to the vectorized-kernel discipline: D111 flags Python
#: loops over agent populations inside these files (provider-column loops
#: are fine; per-consumer loops are not).
VECTORIZED_KERNEL_PATHS = ("tussle/scale/kernels.py",
                           "tussle/scale/nkernels.py")

#: Identifier fragments that mark an iterable as an agent population.
#: Matching is case-insensitive over every Name/Attribute/argument
#: identifier inside the loop's iterable expression.
_POPULATION_TOKENS = ("consumer", "agent", "population", "packet", "flow")

#: Module-level functions of ``random`` that mutate/read the global RNG.
_STATEFUL_RANDOM_FNS = {
    "random", "randint", "randrange", "getrandbits", "choice", "choices",
    "shuffle", "sample", "uniform", "triangular", "betavariate",
    "binomialvariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "seed", "getstate", "setstate", "randbytes",
}

#: numpy.random attributes that are fine to call (seedable constructors and
#: generator machinery); everything else on numpy.random is the legacy
#: global-state API.
_ALLOWED_NP_RANDOM = {
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}

#: Constructors that take a seed as their first argument (D107 sinks).
_SEEDABLE_CTORS = {"random.Random", "numpy.random.default_rng",
                   "numpy.random.RandomState"}

_WALL_CLOCK_FNS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: The subset of wall-clock reads that signal ad-hoc profiling — these
#: additionally fire D109 pointing at the sanctioned Profiler.
_TIMING_FNS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
}

#: Constructors that spawn concurrent workers (D110 sinks).
_PARALLELISM_CTORS = {
    "multiprocessing.Pool", "multiprocessing.Process",
    "multiprocessing.pool.Pool", "multiprocessing.pool.ThreadPool",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
    "threading.Thread",
    "os.fork",
}

#: Instance methods whose argument order matters (sampling/selection).
_ORDER_SENSITIVE_METHODS = {"choice", "choices", "shuffle", "sample",
                            "permutation"}

_RNG_MODULES = {"random", "numpy.random"}


def _is_set_expr(node: ast.expr) -> bool:
    """Literal set, set comprehension, or set()/frozenset() constructor call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, info: ModuleInfo):
        self.info = info
        self.findings: List[Finding] = []
        self._function_depth = 0
        posix_path = str(info.path).replace("\\", "/")
        self._wall_clock_exempt = any(
            posix_path.endswith(suffix) for suffix in WALL_CLOCK_ALLOWLIST
        )
        self._parallelism_exempt = any(
            posix_path.endswith(suffix) for suffix in PARALLELISM_ALLOWLIST
        )
        self._retry_sleep_exempt = any(
            posix_path.endswith(suffix) for suffix in RETRY_SLEEP_ALLOWLIST
        )
        self._kernel_module = any(
            posix_path.endswith(suffix) for suffix in VECTORIZED_KERNEL_PATHS
        )

    # -- helpers -------------------------------------------------------
    def _add(self, rule: Rule, node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule_id=rule.rule_id,
            path=str(self.info.path),
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
        ))

    def _canonical(self, node: ast.expr) -> Optional[str]:
        return resolve_call_name(node, self.info.imports)

    # -- function-scope imports (D108) --------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_rng_import(self, node: ast.AST, module: str) -> None:
        if self._function_depth > 0 and module in _RNG_MODULES:
            self._add(D108, node,
                      f"move `import {module}` to module level so RNG use "
                      "is visible to seeding discipline")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_rng_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and not node.level:
            self._check_rng_import(node, node.module)
        self.generic_visit(node)

    # -- calls (D101/D102/D104/D105/D106/D109/D110/D112 sinks) ---------
    def visit_Call(self, node: ast.Call) -> None:
        canonical = self._canonical(node.func)
        if canonical is not None:
            self._check_canonical_call(node, canonical)
        self._check_order_sensitive_call(node)
        self.generic_visit(node)

    def _check_canonical_call(self, node: ast.Call, canonical: str) -> None:
        module, _, attr = canonical.rpartition(".")
        if module == "random" and attr in _STATEFUL_RANDOM_FNS:
            self._add(D101, node,
                      f"`random.{attr}()` uses the process-global RNG; pass "
                      "a seeded random.Random instance instead")
            return
        if canonical.startswith("numpy.random."):
            remainder = canonical[len("numpy.random."):].split(".")[0]
            if remainder not in _ALLOWED_NP_RANDOM:
                self._add(D102, node,
                          f"`numpy.random.{remainder}()` uses the legacy "
                          "global RandomState; use default_rng(seed)")
                return
        if canonical in _WALL_CLOCK_FNS:
            if self._wall_clock_exempt:
                return
            self._add(D104, node,
                      f"`{canonical}()` reads the host clock; simulated time "
                      "must come from the simulation's own clock")
            if canonical in _TIMING_FNS:
                self._add(D109, node,
                          f"`{canonical}()` is ad-hoc profiling; use "
                          "tussle.obs.profiler.Profiler, the sanctioned "
                          "wall-clock consumer")
            return
        if canonical == "os.getenv":
            self._add(D105, node,
                      "`os.getenv()` makes results depend on the host "
                      "environment; pass configuration explicitly")
            return
        if canonical == "time.sleep" and not self._retry_sleep_exempt:
            self._add(D112, node,
                      "`time.sleep()` stalls on the host clock; real waits "
                      "belong in the resilient sweep executor's sanctioned "
                      "retry site, simulated waits on a simulated clock")
            return
        if canonical in _PARALLELISM_CTORS and not self._parallelism_exempt:
            self._add(D110, node,
                      f"`{canonical}()` spawns concurrent workers; parallel "
                      "fan-out belongs in tussle.sweep.executors, the "
                      "sanctioned site with per-cell seed isolation and a "
                      "deterministic merge")

    def _check_order_sensitive_call(self, node: ast.Call) -> None:
        # list(set(...)) / tuple(set(...)) — order-dependent materialization.
        if (isinstance(node.func, ast.Name) and node.func.id in ("list", "tuple")
                and node.args and _is_set_expr(node.args[0])):
            self._add(D106, node,
                      f"`{node.func.id}(set(...))` materializes unordered "
                      "elements; use sorted(...)")
            return
        # rng.choice(set(...)) and friends — sampling from unordered input.
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in _ORDER_SENSITIVE_METHODS
                and node.args and _is_set_expr(node.args[0])):
            self._add(D106, node,
                      f"`.{node.func.attr}()` over a set draws in hash order; "
                      "sort the population first")

    # -- attribute reads (D105) ----------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._canonical(node) == "os.environ":
            self._add(D105, node,
                      "`os.environ` read makes results depend on the host "
                      "environment; pass configuration explicitly")
        self.generic_visit(node)

    # -- population loops in kernels (D111) ----------------------------
    def _population_reference(self, expr: ast.expr) -> Optional[str]:
        """First identifier in ``expr`` that names an agent population."""
        for sub in ast.walk(expr):
            names = []
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.append(sub.attr)
            elif isinstance(sub, ast.arg):
                names.append(sub.arg)
            for name in names:
                lowered = name.lower()
                if any(token in lowered for token in _POPULATION_TOKENS):
                    return name
        return None

    def _check_kernel_loop(self, iterable: ast.expr, construct: str) -> None:
        if not self._kernel_module:
            return
        offender = self._population_reference(iterable)
        if offender is not None:
            self._add(D111, iterable,
                      f"{construct} iterates the agent population "
                      f"(`{offender}`) in Python; kernel modules must keep "
                      "population work in NumPy array expressions")

    # -- iteration over sets (D106) ------------------------------------
    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._add(D106, node.iter,
                      "for-loop iterates a set in hash order; wrap it in "
                      "sorted(...)")
        self._check_kernel_loop(node.iter, "for-loop")
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_kernel_loop(node.test, "while-loop")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for generator in node.generators:
            if _is_set_expr(generator.iter):
                self._add(D106, generator.iter,
                          "comprehension iterates a set in hash order; wrap "
                          "it in sorted(...)")
            self._check_kernel_loop(generator.iter, "comprehension")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)
        self.generic_visit(node)

    # SetComp over a set is order-free (set -> set), so it is not visited.

    # -- hidden-default fallbacks (D107) -------------------------------
    def _is_rng_ctor_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        canonical = self._canonical(node.func)
        return canonical in _SEEDABLE_CTORS

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if isinstance(node.op, ast.Or):
            for value in node.values[1:]:
                if self._is_rng_ctor_call(value):
                    self._add(D107, value,
                              "`or`-fallback constructs an RNG with a seed "
                              "the caller never sees; thread an explicit "
                              "seed parameter")
        self.generic_visit(node)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        for branch in (node.body, node.orelse):
            if (self._is_rng_ctor_call(branch)
                    and all(isinstance(a, ast.Constant)
                            for a in branch.args)  # type: ignore[union-attr]
                    and branch.args):  # type: ignore[union-attr]
                self._add(D107, branch,
                          "conditional fallback pins a constant RNG seed; "
                          "thread an explicit seed parameter")
        self.generic_visit(node)


def check_module_determinism(info: ModuleInfo) -> List[Finding]:
    """Run every D-series rule over one parsed module."""
    visitor = _DeterminismVisitor(info)
    visitor.visit(info.tree)
    return visitor.findings
