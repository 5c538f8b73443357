"""X-series rules: public-API surface invariants.

Two invariants keep the package's error handling and import surface
honest: every exception raised by the framework derives from the
:mod:`tussle.errors` taxonomy (so callers can catch ``TussleError``
without masking programming errors), and every name exported via
``__all__`` or a lazy table (:mod:`tussle._lazy`) actually exists in
the module it names.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, List, Optional, Set

from .context import ProjectContext, dotted_name, module_dotted_name
from .findings import Finding, Rule, register_rule

__all__ = ["check_api_invariants", "API_RULES"]

X301 = register_rule(Rule(
    "X301", "exception-taxonomy",
    "raised exceptions must derive from the tussle.errors taxonomy",
    "Callers catch TussleError to distinguish framework failures from "
    "programming errors; a bare ValueError escaping the simulation breaks "
    "that contract.",
))
X302 = register_rule(Rule(
    "X302", "dunder-all-accurate",
    "__all__ and lazy-table entries must name objects defined in the module",
    "A stale __all__ breaks `from module import *` and misleads readers "
    "about the public surface; a stale lazy-table entry fails only when "
    "a caller first reads the name.",
))

API_RULES = (X301, X302)

#: Builtin exceptions that are legitimate control flow rather than
#: framework failures.
_ALLOWED_BUILTIN_RAISES = {
    "NotImplementedError",   # abstract-method stubs
    "StopIteration", "StopAsyncIteration", "GeneratorExit",
    "SystemExit",            # CLI exit paths
    "KeyboardInterrupt",
    "ImportError",           # a package whose export table is inconsistent
}

_TAXONOMY_ROOT = "TussleError"


def _class_bases(context: ProjectContext) -> Dict[str, Set[str]]:
    """Simple-name class hierarchy across the scanned package.

    Keyed by class name; values are base-class simple names.  Simple names
    are enough here because the taxonomy lives in one module and the
    package does not reuse exception class names.
    """
    hierarchy: Dict[str, Set[str]] = {}
    for info in context.modules:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases: Set[str] = set()
            for base in node.bases:
                name = dotted_name(base)
                if name is not None:
                    bases.add(name.split(".")[-1])
            hierarchy.setdefault(node.name, set()).update(bases)
    return hierarchy


def _derives_from_taxonomy(name: str, hierarchy: Dict[str, Set[str]],
                           _seen: Optional[Set[str]] = None) -> bool:
    if name == _TAXONOMY_ROOT:
        return True
    seen = _seen or set()
    if name in seen or name not in hierarchy:
        return False
    seen.add(name)
    return any(_derives_from_taxonomy(base, hierarchy, seen)
               for base in hierarchy[name])


def _raised_class_name(node: ast.Raise) -> Optional[str]:
    """Simple name of the raised exception class, when statically known."""
    exc = node.exc
    if exc is None:  # bare re-raise
        return None
    if isinstance(exc, ast.Call):
        exc = exc.func
    name = dotted_name(exc)
    if name is None:
        return None
    return name.split(".")[-1]


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def check_api_invariants(context: ProjectContext) -> List[Finding]:
    findings: List[Finding] = []
    hierarchy = _class_bases(context)
    by_module = {module_dotted_name(info.path): info
                 for info in context.modules}
    defined_in: Dict[str, Set[str]] = {}

    for info in context.modules:
        path = str(info.path)

        # X301 — exception taxonomy.  ``hasattr``, ``getattr`` with a
        # default and ``from package import submodule`` expect a
        # ``__getattr__`` to raise AttributeError: that is the protocol.
        in_getattr = {
            id(node) for fn in ast.walk(info.tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name == "__getattr__"
            for node in ast.walk(fn) if isinstance(node, ast.Raise)
        }
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Raise):
                continue
            name = _raised_class_name(node)
            if (name is None or name in _ALLOWED_BUILTIN_RAISES
                    or (name == "AttributeError" and id(node) in in_getattr)):
                continue
            if _is_builtin_exception(name):
                findings.append(Finding(
                    X301.rule_id, path, node.lineno, node.col_offset + 1,
                    f"raises builtin `{name}`; raise a tussle.errors "
                    "subclass so callers can catch TussleError",
                ))
            elif name in hierarchy and not _derives_from_taxonomy(name, hierarchy):
                findings.append(Finding(
                    X301.rule_id, path, node.lineno, node.col_offset + 1,
                    f"`{name}` does not derive from TussleError",
                ))
            # Names that resolve to neither (exception instances bound to
            # variables, imported third-party classes) are skipped: the
            # analyzer only reports what it can prove.

        # X302 — a lazy-table entry is the import it replaces.
        for entry in info.table_entries():
            source = by_module.get(entry.module)
            if source is None:
                continue  # outside the scan: nothing to check against
            if entry.module not in defined_in:
                defined_in[entry.module] = source.top_level_defined_names()
            if entry.name not in defined_in[entry.module]:
                findings.append(Finding(
                    X302.rule_id, path, entry.line, 1,
                    f"the lazy table exports `{entry.name}` from "
                    f"`{entry.module}`, which never defines it",
                ))

        # X302 — __all__ accuracy.
        exported = info.dunder_all()
        if exported is not None:
            entries, line = exported
            defined = info.top_level_defined_names()
            for entry in entries:
                if entry not in defined:
                    findings.append(Finding(
                        X302.rule_id, path, line, 1,
                        f"__all__ exports `{entry}` but the module never "
                        "defines it",
                    ))
    return findings
