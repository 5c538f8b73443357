"""X305: every module must be importable from an entry point.

The roots are the scanned modules with an ``if __name__ == "__main__":``
guard (the ``python -m`` targets and the standalone CLIs).  From there
the rule follows import statements, statically, the way Python loads
modules:

* a reached module's imports at any depth are edges (function-level
  imports included);
* ``from pkg import name`` resolves ``name`` through the package
  ``__init__`` to the module that defines it;
* reaching a module reaches its enclosing packages, and a reached
  package reaches the submodules its ``__init__`` imports *as modules*
  (``from . import api, conformance, determinism``) and the modules
  outside itself that it imports (the lazy-export helper);
* a lazy export table entry (:mod:`tussle._lazy`) is the re-export it
  replaces, ``from .module import name``;
* the other imports of an ``__init__``, and the modules its registry
  table names, count only once an importer uses a name the ``__init__``
  defines itself (``ALL_EXPERIMENTS``).

Every non-``__init__`` module left unreached is reported.  A scan with no
entry point among its files reports nothing.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .context import ProjectContext, module_dotted_name
from .findings import Finding, Rule, register_rule
from .flow.summaries import import_base

__all__ = ["check_reachability"]

X305 = register_rule(Rule(
    "X305", "unreachable-module",
    "every module must be importable from an entry point",
    "A module no `__main__`-guarded entry point can import runs under no "
    "experiment and no CLI: its tests pin code the program never "
    "executes, and documentation that cites it claims measurements "
    "nothing makes. Delete it, or import it from code that runs.",
))

#: An import target: ``(module, None)`` for ``import module``, else
#: ``(base, name)`` for ``from base import name``.
_Target = Tuple[str, Optional[str]]


def _is_main_guard(node: ast.stmt) -> bool:
    test = node.test if isinstance(node, ast.If) else None
    return (isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def _targets(nodes: Iterator[ast.AST], module: str,
             is_package: bool) -> Iterator[Tuple[str, _Target]]:
    """(bound local name, target) for every import statement in ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                yield local, (alias.name, None)
        elif isinstance(node, ast.ImportFrom):
            base = import_base(node, module, is_package)
            for alias in node.names:
                yield alias.asname or alias.name, (base, alias.name)


def check_reachability(context: ProjectContext) -> List[Finding]:
    infos = {module_dotted_name(info.path): info for info in context.modules}
    packages = {name for name, info in infos.items()
                if info.path.stem == "__init__"}
    edges: Dict[str, List[_Target]] = {}
    registered: Dict[str, List[_Target]] = {}
    exported: Dict[str, Dict[str, _Target]] = {}
    for name, info in infos.items():
        is_package = name in packages
        edges[name] = [target for _, target in
                       _targets(ast.walk(info.tree), name, is_package)]
        if is_package:
            exported[name] = dict(_targets(iter(info.tree.body), name, True))
            for entry in info.table_entries():
                target = (entry.module, entry.name)
                if entry.registry:
                    registered.setdefault(name, []).append(target)
                else:
                    exported[name][entry.key] = target

    def outside(target: _Target, package: str) -> bool:
        return not (target[0] + ".").startswith(package + ".")

    def as_module(target: _Target) -> Optional[str]:
        base, name = target
        dotted = base if name is None else f"{base}.{name}"
        return dotted if dotted in infos else None

    def resolve(target: _Target,
                seen: Set[_Target]) -> Optional[Tuple[str, bool]]:
        """(module ``target`` loads, whether all its imports run)."""
        module = as_module(target)
        if module is not None:
            return module, module not in packages
        base, name = target
        if base not in infos or target in seen:
            return None
        seen.add(target)
        if name != "*" and name in exported.get(base, {}):
            return resolve(exported[base][name], seen)
        return base, True  # a plain module, or a name the __init__ defines

    roots = [name for name, info in infos.items()
             if any(_is_main_guard(node) for node in info.tree.body)]
    if not roots:
        return []
    walked: Set[str] = set()        # every import ran
    package_only: Set[str] = set()  # only the module imports ran
    stack = [(root, True) for root in roots]
    while stack:
        name, full = stack.pop()
        done = walked if full else package_only
        if name in done:
            continue
        done.add(name)
        parts = name.split(".")
        stack.extend((".".join(parts[:cut]), False)
                     for cut in range(1, len(parts))
                     if ".".join(parts[:cut]) in packages)
        if full:
            stack.extend(filter(None, (
                resolve(target, set())
                for target in edges[name] + registered.get(name, []))))
        else:
            stack.extend((module, module not in packages)
                         for module in map(as_module, edges[name])
                         if module is not None)
            stack.extend(filter(None, (resolve(target, set())
                                       for target in edges[name]
                                       if outside(target, name))))

    return [
        Finding(X305.rule_id, str(info.path), 1, 1,
                f"no entry point imports `{name}`; delete it or import "
                "it from code that runs")
        for name, info in sorted(infos.items())
        if name not in packages and name not in walked
    ]
