"""Seed-provenance analysis: rules F201-F204.

Every RNG construction site recorded during extraction carries a *trace
expression* for its seed argument.  :func:`check_rng_flow` evaluates
each trace against the whole program:

* terminals — integer/string literals, seed-named parameters and
  attributes (``seed``, ``base_seed``, ``self.seed``), and registered
  substream derivations (``derive_seed``/``getrandbits``)
  — are traced by construction;
* a *non*-seed-named parameter is traced only if **every** call site of
  the enclosing function (via the reverse call graph) passes a traced
  value for it, recursively;
* everything else (unresolvable names, external calls, opaque
  expressions) fails the trace and fires F201, as does every
  ``random.SystemRandom``, which can never be seeded.

F202 flags one RNG value passed into two or more distinct tussle
subsystems from the same function (stream aliasing), F203 flags RNG
values crossing an executor/process boundary, and F204 flags RNG
constructors evaluated in parameter defaults.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..findings import Finding
from .project import Program, subsystem_of
from .rules import F201, F202, F203, F204
from .summaries import SEED_DERIVATION_FNS

__all__ = ["check_rng_flow", "trace_seed_expr", "EXECUTOR_BOUNDARY_METHODS"]

#: Method names that hand their callable/iterable arguments to another
#: process or worker (the executor boundary for F203/F208).
EXECUTOR_BOUNDARY_METHODS = {
    "map", "imap", "imap_unordered", "starmap", "starmap_async",
    "apply", "apply_async", "map_async", "submit",
}

#: External constructors that spawn a worker taking target/args payloads.
EXECUTOR_BOUNDARY_CTORS = {
    "multiprocessing.Process", "multiprocessing.pool.Pool",
    "multiprocessing.Pool", "threading.Thread",
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.ThreadPoolExecutor",
}

#: RNG methods whose result is a sanctioned substream seed.
_SUBSTREAM_METHODS = {"getrandbits", "randint", "randrange"}

_MAX_TRACE_DEPTH = 24


def _is_derivation_call(program: Program, caller: Dict[str, Any],
                        expr: Dict[str, Any]) -> bool:
    """Is this call expression a registered seed derivation?"""
    target = expr.get("t", {})
    kind = target.get("t")
    name: Optional[str] = None
    if kind in ("proj", "ext"):
        name = target["q"].rsplit(".", 1)[-1]
    elif kind in ("builtin", "localfn"):
        name = target.get("n")
    elif kind in ("meth", "selfm"):
        attr = target.get("attr", "")
        if attr in _SUBSTREAM_METHODS:
            recv = target.get("recv", "")
            # drawing bits from an (already-traced) rng object
            return recv.startswith(("param:", "local:", "selfattr",
                                    "paramattr:")) or recv == "other"
        name = attr
    return name in SEED_DERIVATION_FNS


def trace_seed_expr(program: Program, fn: Dict[str, Any],
                    expr: Optional[Dict[str, Any]],
                    _stack: Optional[Set[Tuple[str, str]]] = None,
                    _depth: int = 0) -> Tuple[bool, str]:
    """(traced?, reason).  ``expr`` is a summary TraceExpr or None."""
    if expr is None:
        return False, "constructed with no seed argument"
    if _depth > _MAX_TRACE_DEPTH:
        return False, "trace exceeded depth budget"
    kind = expr.get("k")
    if kind == "const":
        if expr.get("v") is None:
            return False, "explicit None seed (OS-entropy seeded)"
        return True, "literal"
    if kind == "seed":
        return True, f"seed-named value `{expr['name']}`"
    if kind == "rng":
        return False, f"RNG object `{expr['name']}` used as a seed"
    if kind in ("binop", "choice", "container"):
        for part in expr.get("parts", expr.get("items", [])):
            ok, reason = trace_seed_expr(program, fn, part, _stack, _depth + 1)
            if not ok:
                return False, reason
        return True, "derived expression"
    if kind == "call":
        if _is_derivation_call(program, fn, expr):
            return True, "substream derivation"
        target = expr.get("t", {})
        callee_qual = program.resolve_call(fn, {"t": target, "args": [],
                                                "kw": {}, "line": 0, "col": 0})
        if callee_qual is not None:
            callee = program.function(callee_qual)
            if callee is not None and callee["returns"]:
                for ret in callee["returns"]:
                    ok, reason = trace_seed_expr(program, callee, ret,
                                                 _stack, _depth + 1)
                    if not ok:
                        return False, (f"return value of {callee_qual} "
                                       f"is untraced ({reason})")
                return True, f"traced return of {callee_qual}"
        return False, "call result with no traceable seed provenance"
    if kind == "local":
        binding = fn["bindings"].get(expr["name"])
        if binding is not None:
            return trace_seed_expr(program, fn, binding, _stack, _depth + 1)
        return False, f"local `{expr['name']}` has no traceable binding"
    if kind == "param":
        return _trace_parameter(program, fn, expr["name"], _stack, _depth)
    if kind == "param_attr":
        return False, (f"attribute `{expr['name']}.{expr['attr']}` "
                       "is not seed-named")
    if kind == "funcref":
        return False, f"function reference `{expr['q']}` used as seed"
    if kind == "globalname":
        return False, f"module-level `{expr['name']}` is not a traced seed"
    return False, "untraceable expression"


def _trace_parameter(program: Program, fn: Dict[str, Any], param: str,
                     stack: Optional[Set[Tuple[str, str]]],
                     depth: int) -> Tuple[bool, str]:
    stack = stack if stack is not None else set()
    key = (fn["qual"], param)
    if key in stack:
        return True, "recursive pass-through"  # optimistic on cycles
    stack = stack | {key}

    call_sites = program.callers.get(fn["qual"], [])
    if not call_sites:
        return False, (f"parameter `{param}` of {fn['qual']} has no "
                       "traced call site (rename it to *seed* or thread "
                       "a seed parameter)")
    try:
        index = fn["params"].index(param)
    except ValueError:
        index = None
    for caller_qual, site in call_sites:
        caller = program.function(caller_qual)
        arg = site["kw"].get(param)
        if arg is None and index is not None:
            args = site["args"]
            offset = index
            # Method call through an instance: the `self` slot is not
            # present in the argument list.
            if fn.get("cls") and fn["params"][:1] == ["self"]:
                offset = index - 1
            if 0 <= offset < len(args):
                arg = args[offset]
        if arg is None:
            default = fn["defaults"].get(param)
            if default is not None:
                arg, caller = default, fn
            elif site.get("star"):
                return False, (f"parameter `{param}` of {fn['qual']} "
                               f"receives *args/**kwargs from "
                               f"{caller_qual}; provenance is invisible")
            else:
                return False, (f"call from {caller_qual} never supplies "
                               f"`{param}` and it has no default")
        ok, reason = trace_seed_expr(program, caller, arg, stack, depth + 1)
        if not ok:
            return False, (f"call from {caller_qual} passes an untraced "
                           f"value for `{param}`: {reason}")
    return True, "all call sites traced"


def _walk_expr(expr: Dict[str, Any]):
    yield expr
    for child in expr.get("parts", []):
        yield from _walk_expr(child)
    for child in expr.get("items", []):
        yield from _walk_expr(child)
    for child in expr.get("args", []):
        yield from _walk_expr(child)


def _rng_refs(expr: Dict[str, Any]) -> List[str]:
    return [e["name"] for e in _walk_expr(expr) if e.get("k") == "rng"]


def _unpicklable_refs(expr: Dict[str, Any]) -> List[str]:
    out = []
    for e in _walk_expr(expr):
        if e.get("k") == "lambda":
            out.append("a lambda")
        elif e.get("k") == "localfunc":
            out.append(f"nested function `{e['name']}`")
    return out


def _is_boundary_site(site: Dict[str, Any]) -> bool:
    target = site["t"]
    kind = target["t"]
    if kind == "meth" and target["attr"] in EXECUTOR_BOUNDARY_METHODS:
        return True
    if kind == "ext" and target["q"] in EXECUTOR_BOUNDARY_CTORS:
        return True
    if kind == "proj" and target["q"].rsplit(".", 1)[-1] == "Process":
        return True
    return False


def check_rng_flow(program: Program) -> List[Finding]:
    """Evaluate F201-F204 over the linked program."""
    findings: List[Finding] = []

    for qual, fn, path in program.iter_functions():
        # F201 — every construction site's seed must trace.
        for ctor in fn["rng_ctors"]:
            if ctor["ctor"] == "random.SystemRandom":
                ok, reason = False, ("draws from OS entropy and ignores any "
                                     "seed; use random.Random(seed)")
            else:
                ok, reason = trace_seed_expr(program, fn, ctor["seed"])
            if not ok:
                findings.append(Finding(
                    F201.rule_id, path, ctor["line"], ctor["col"],
                    f"`{ctor['ctor']}` in {qual}: {reason}",
                ))

        # F204 — RNG constructors in parameter defaults.
        for default in fn["rng_defaults"]:
            findings.append(Finding(
                F204.rule_id, path, default["line"], default["col"],
                f"`{default['ctor']}` evaluated in a parameter default of "
                f"{qual}: one hidden generator is shared by every call; "
                "default to None and construct from an explicit seed",
            ))

        # F202 — one RNG value fanned into multiple subsystems.
        passes: Dict[str, Dict[str, int]] = {}
        own_subsystem = subsystem_of(qual)
        for site in fn["calls"]:
            callee = program.resolve_call(fn, site)
            if callee is None:
                continue
            callee_subsystem = subsystem_of(callee)
            if callee_subsystem is None or callee_subsystem == "experiments":
                continue
            for expr in list(site["args"]) + list(site["kw"].values()):
                for rng_name in _rng_refs(expr):
                    sinks = passes.setdefault(rng_name, {})
                    sinks.setdefault(callee_subsystem, site["line"])
        for rng_name in sorted(passes):
            sinks = passes[rng_name]
            foreign = {s for s in sinks if s != own_subsystem}
            if len(foreign) >= 2:
                line = min(sinks.values())
                findings.append(Finding(
                    F202.rule_id, path, line, 1,
                    f"RNG `{rng_name}` in {qual} is passed into "
                    f"{len(foreign)} subsystems ({', '.join(sorted(foreign))});"
                    " derive an independent substream per subsystem with "
                    "derive_seed",
                ))

        # F203 — RNG values crossing an executor boundary.
        for site in fn["calls"]:
            if not _is_boundary_site(site):
                continue
            for expr in list(site["args"]) + list(site["kw"].values()):
                for rng_name in _rng_refs(expr):
                    findings.append(Finding(
                        F203.rule_id, path, site["line"], site["col"],
                        f"RNG `{rng_name}` crosses the executor boundary "
                        f"at {qual}; workers must construct their own "
                        "generator from a derived seed in the task payload",
                    ))
    return findings
