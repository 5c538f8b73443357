"""Whole-program linkage: symbol table and call graph over summaries.

The :class:`Program` indexes every function/class summary by qualified
name, resolves call targets (project functions, ``self`` methods via the
base-class chain, methods on parameters via their annotations), builds
the reverse call graph for seed-provenance walks, and computes worker
reachability.  Everything here operates on the plain-dict summaries from
:mod:`tussle.lint.flow.summaries`, never on ASTs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = ["Program", "subsystem_of"]


def subsystem_of(qualname: str) -> Optional[str]:
    """The tussle subsystem a qualified name belongs to (``tussle.X...``)."""
    parts = qualname.split(".")
    if len(parts) >= 2 and parts[0] == "tussle":
        return parts[1]
    return None


class Program:
    """Linked view over all module summaries of one analysis run."""

    def __init__(self, summaries: Iterable[Dict[str, Any]]):
        self.modules: Dict[str, Dict[str, Any]] = {}
        self.functions: Dict[str, Dict[str, Any]] = {}
        #: dotted class name -> (module summary, class summary dict)
        self.classes: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        self.path_of: Dict[str, str] = {}
        for summary in summaries:
            module = summary["module"]
            self.modules[module] = summary
            for fn in summary["functions"]:
                self.functions[fn["qual"]] = fn
                self.path_of[fn["qual"]] = summary["path"]
            for cls_name, cls in summary["classes"].items():
                self.classes[f"{module}.{cls_name}"] = (summary, cls)
        self._callers: Optional[Dict[str, List[Tuple[str, Dict]]]] = None
        #: id(site) -> (site, resolution).  The site reference keeps the
        #: keyed dict alive so a recycled id can never alias a new dict.
        self._resolution_cache: Dict[int, Tuple[Dict, Optional[str]]] = {}

    # -- symbol lookups ------------------------------------------------
    def function(self, qual: str) -> Optional[Dict[str, Any]]:
        return self.functions.get(qual)

    def iter_functions(self) -> Iterator[Tuple[str, Dict[str, Any], str]]:
        """(qualname, summary, path) for every function, sorted."""
        for qual in sorted(self.functions):
            yield qual, self.functions[qual], self.path_of[qual]

    def method_on_class(self, cls_dotted: str, attr: str,
                        _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Resolve ``cls.attr`` through the project base-class chain."""
        seen = _seen if _seen is not None else set()
        if cls_dotted in seen or cls_dotted not in self.classes:
            return None
        seen.add(cls_dotted)
        summary, cls = self.classes[cls_dotted]
        if attr in cls["methods"]:
            return f"{cls_dotted}.{attr}"
        for base in cls["bases"]:
            resolved = self.method_on_class(base, attr, seen)
            if resolved is not None:
                return resolved
        return None

    # -- call-target resolution ----------------------------------------
    def resolve_call(self, caller: Dict[str, Any],
                     site: Dict[str, Any]) -> Optional[str]:
        """Qualified name of the project function a call site reaches.

        Returns None for externals, builtins, and dynamically-dispatched
        calls the analysis cannot see through.  Constructor calls resolve
        to the class's ``__init__`` when one is defined in the project;
        a class with no ``__init__`` resolves to None (pure construction).
        """
        key = id(site)
        cached = self._resolution_cache.get(key)
        if cached is not None and cached[0] is site:
            return cached[1]
        resolved = self._resolve_uncached(caller, site)
        self._resolution_cache[key] = (site, resolved)
        return resolved

    def _resolve_uncached(self, caller: Dict[str, Any],
                          site: Dict[str, Any]) -> Optional[str]:
        target = site["t"]
        kind = target["t"]
        if kind == "proj":
            return self._resolve_project_name(target["q"])
        if kind == "selfm":
            module = caller["qual"].rsplit(
                f".{caller['cls']}.{caller['name']}", 1)[0]
            return self.method_on_class(f"{module}.{target['cls']}",
                                        target["attr"])
        if kind == "meth":
            annotation = target.get("ann")
            if annotation is not None:
                return self.method_on_class(annotation, target["attr"])
            return None
        if kind == "localfn":
            return None  # inlined into the caller at extraction
        return None

    def _resolve_project_name(self, qual: str) -> Optional[str]:
        if qual in self.functions:
            return qual
        if qual in self.classes:
            return self.method_on_class(qual, "__init__")
        # "module.Class.method" written out explicitly.
        head, _, attr = qual.rpartition(".")
        if head in self.classes:
            return self.method_on_class(head, attr)
        # Re-exported name: "tussle.sweep.derive_seed" defined in
        # tussle.sweep.cells.  Match by trailing function name inside
        # the package the prefix points at.
        if head in self.modules:
            return None
        for candidate_module in self.modules:
            if candidate_module.startswith(head + "."):
                candidate = f"{candidate_module}.{qual.rsplit('.', 1)[1]}"
                if candidate in self.functions:
                    return candidate
        return None

    # -- reverse call graph --------------------------------------------
    @property
    def callers(self) -> Dict[str, List[Tuple[str, Dict[str, Any]]]]:
        """callee qualname -> [(caller qualname, call site), ...]"""
        if self._callers is None:
            table: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
            for qual, fn, _path in self.iter_functions():
                for site in fn["calls"]:
                    callee = self.resolve_call(fn, site)
                    if callee is not None:
                        table.setdefault(callee, []).append((qual, site))
            self._callers = table
        return self._callers

    # -- reachability --------------------------------------------------
    def reachable_from(self, entries: Iterable[str]) -> Set[str]:
        """Every project function reachable from ``entries`` via resolved
        call edges (constructor edges included)."""
        seen: Set[str] = set()
        stack = [e for e in entries if e in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            fn = self.functions[qual]
            for site in fn["calls"]:
                callee = self.resolve_call(fn, site)
                if callee is not None and callee not in seen:
                    stack.append(callee)
            # A function reference passed as a value is a potential call.
            for expr in _iter_funcrefs(fn):
                resolved = self._resolve_project_name(expr)
                if resolved is not None and resolved not in seen:
                    stack.append(resolved)
        return seen


def _iter_funcrefs(fn: Dict[str, Any]) -> Iterator[str]:
    """Project functions referenced (not called) inside ``fn``'s calls."""
    def walk(expr: Dict[str, Any]) -> Iterator[str]:
        kind = expr.get("k")
        if kind == "funcref" and expr["q"].startswith("tussle."):
            yield expr["q"]
        for child in expr.get("parts", []) or expr.get("items", []) \
                or expr.get("args", []):
            yield from walk(child)

    for site in fn["calls"]:
        for expr in list(site["args"]) + list(site["kw"].values()):
            yield from walk(expr)
