"""Parsed-source context shared by all lint rules.

The engine parses every file exactly once into a :class:`ModuleInfo`
(AST, import table, inline suppressions) and bundles them into a
:class:`ProjectContext` so project-level rules (experiment conformance,
exception taxonomy) can see the whole tree without re-reading files.
The flow summaries behind the F rules are extracted from the same ASTs.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ..errors import LintError

__all__ = [
    "ModuleInfo",
    "ProjectContext",
    "TableEntry",
    "absolute_module",
    "lazy_entries",
    "module_dotted_name",
    "parse_module",
    "dotted_name",
    "resolve_call_name",
]

#: Inline suppression: ``# lint: disable=D101`` or ``# lint: disable=D101,X301``
#: (``# noqa: D101`` is honoured as a familiar alias).  A bare
#: ``# lint: disable`` suppresses every rule on that line.
_SUPPRESS_RE = re.compile(
    r"#\s*(?:lint:\s*disable|noqa:?)\s*(?:=\s*)?([A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)?"
)

#: The canonical ``# lint: disable`` form only — the stale-suppression
#: rule (X303) covers this form and never ``# noqa``, which other tools
#: (flake8) own and which routinely carries their rule codes.  Anchored
#: at the start of a COMMENT token so prose that merely *mentions* the
#: syntax (docstrings, doc comments, string literals) is never audited.
_DISABLE_RE = re.compile(
    r"#\s*lint:\s*disable\s*(?:=\s*)?([A-Z]\d+(?:\s*,\s*[A-Z]\d+)*)?"
)


def _parse_suppressions(source_lines: List[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line number -> suppressed rule ids (None = all rules)."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        if "#" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        ids = match.group(1)
        table[lineno] = (
            {part.strip() for part in ids.split(",")} if ids else None
        )
    return table


def _parse_disable_comments(
        source_lines: List[str]) -> Dict[int, Optional[Set[str]]]:
    """Like :func:`_parse_suppressions`, restricted to ``lint: disable``.

    Parses actual COMMENT tokens (via :mod:`tokenize`) with the pattern
    anchored at the comment start, so ``#: docs about # lint: disable``
    and string literals containing the syntax never enter the table.
    Sources that fail to tokenize yield an empty table — X303 simply has
    nothing to audit there.
    """
    table: Dict[int, Optional[Set[str]]] = {}
    text = "\n".join(source_lines) + "\n"
    if "lint:" not in text:
        return table  # every _DISABLE_RE match contains it; skip tokenizing
    reader = io.StringIO(text).readline
    try:
        tokens = list(tokenize.generate_tokens(reader))
    except (tokenize.TokenError, IndentationError, SyntaxError, ValueError):
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _DISABLE_RE.match(token.string)
        if not match:
            continue
        ids = match.group(1)
        table[token.start[0]] = (
            {part.strip() for part in ids.split(",")} if ids else None
        )
    return table


@dataclass
class ModuleInfo:
    """One parsed source file plus derived lookup tables."""

    path: Path
    tree: ast.Module
    source_lines: List[str]
    #: local name -> canonical dotted module/object path, built from the
    #: module's import statements (``np`` -> ``numpy``,
    #: ``default_rng`` -> ``numpy.random.default_rng``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: 1-based line -> rule ids suppressed on that line (None = all).
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)
    #: Subset of ``suppressions`` written in the ``# lint: disable`` form
    #: (the only form X303 audits for staleness).
    disable_comments: Dict[int, Optional[Set[str]]] = field(
        default_factory=dict)
    #: (line, rule_id) pairs whose inline suppression actually fired this
    #: run — the complement over ``disable_comments`` is what X303 flags.
    used_suppressions: Set[Tuple[int, str]] = field(default_factory=set)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        if line not in self.suppressions:
            return False
        ids = self.suppressions[line]
        return ids is None or rule_id in ids

    def top_level_defined_names(self) -> Set[str]:
        """Names bound at module scope (defs, classes, assigns, imports)."""
        names: Set[str] = set()
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    names.update(_target_names(target))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                                ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target,
                                                                ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name)
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditionally-bound names (TYPE_CHECKING guards etc.).
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                        names.add(sub.name)
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            names.update(_target_names(target))
        return names

    def table_entries(self) -> List["TableEntry"]:
        """The lazy-table entries of a package ``__init__`` (else none)."""
        if self.path.stem != "__init__":
            return []
        return lazy_entries(self.tree, module_dotted_name(self.path))

    def dunder_all(self) -> Optional[Tuple[List[str], int]]:
        """The literal entries of ``__all__`` and the first definition line.

        Collects ``__all__ = [...]`` plus ``__all__ += [...]`` extensions;
        returns None when the module never defines ``__all__`` or builds it
        dynamically (non-literal entries are skipped, not reported).
        """
        entries: List[str] = []
        first_line: Optional[int] = None
        for node in self.tree.body:
            value: Optional[ast.expr] = None
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                value = node.value
            elif (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == "__all__"):
                value = node.value
            if value is None:
                continue
            if first_line is None:
                first_line = node.lineno
            if isinstance(value, (ast.List, ast.Tuple)):
                for element in value.elts:
                    if isinstance(element, ast.Constant) and isinstance(
                            element.value, str):
                        entries.append(element.value)
        if first_line is None:
            return None
        return entries, first_line


def module_dotted_name(path: Path) -> str:
    """Canonical dotted module name, walking up through ``__init__.py``.

    ``src/tussle/econ/market.py`` -> ``tussle.econ.market`` regardless of
    the scan root; a loose file in a package-less directory is just its
    stem.
    """
    parts = [] if path.stem == "__init__" else [path.stem]
    current = path.parent
    while (current / "__init__.py").is_file():
        parts.append(current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(reversed(parts)) or path.stem


def absolute_module(text: str, module: str, is_package: bool) -> str:
    """The absolute dotted name of ``text`` as ``from <text> import`` reads
    it inside ``module``.

    ``..errors`` in ``tussle.econ.market`` is ``tussle.errors``; in a
    package ``__init__`` one leading dot already names the package.
    """
    level = len(text) - len(text.lstrip("."))
    if not level:
        return text
    drop = level - (1 if is_package else 0)
    own_parts = module.split(".")
    base_parts = own_parts[:-drop] if drop else own_parts
    rest = text[level:]
    return ".".join(base_parts + ([rest] if rest else []))


@dataclass(frozen=True)
class TableEntry:
    """One entry of a lazy table (:mod:`tussle._lazy`), read as the
    ``from module import name`` it replaces."""

    #: The name the package exports, or the registry key.
    key: str
    #: Absolute dotted module the entry loads.
    module: str
    #: The attribute of ``module`` the entry resolves to.
    name: str
    line: int
    #: A registry entry: its lookup imports ``module``, where an export
    #: entry is a re-export that loads only when the name is read.
    registry: bool


def lazy_entries(tree: ast.Module, package: str) -> List[TableEntry]:
    """Every lazy-table entry of the package ``__init__`` parsed as ``tree``.

    Reads both table forms: an export table,
    ``exports(__name__, {".module": ("name", ...)}[, registry])``, and a
    registry, ``Registry(__name__, {"key": ".module:function"})``.  Each is
    a module-level call with ``__name__`` and a literal dict; a registry
    named as the export table's third argument exports its functions.
    """
    entries: List[TableEntry] = []
    registries: Dict[str, List[TableEntry]] = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        args = node.value.args
        if not (len(args) >= 2 and isinstance(args[0], ast.Name)
                and args[0].id == "__name__" and isinstance(args[1], ast.Dict)):
            continue
        rows: List[TableEntry] = []
        for key, value in zip(args[1].keys, args[1].values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                module, _, name = value.value.partition(":")
                rows.append(TableEntry(key.value,
                                       absolute_module(module, package, True),
                                       name, key.lineno, True))
            elif isinstance(value, (ast.Tuple, ast.List)):
                module = absolute_module(key.value, package, True)
                rows.extend(TableEntry(element.value, module, element.value,
                                       element.lineno, False)
                            for element in value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str))
        for arg in args[2:]:
            if isinstance(arg, ast.Name):
                rows.extend(TableEntry(row.name, row.module, row.name,
                                       row.line, False)
                            for row in registries.get(arg.id, ()))
        for target in node.targets:
            if isinstance(target, ast.Name):
                registries[target.id] = [row for row in rows if row.registry]
        entries.extend(rows)
    return entries


def _target_names(target: ast.expr) -> Set[str]:
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for element in target.elts:
            names.update(_target_names(element))
        return names
    return set()


def _build_import_table(tree: ast.Module) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    table[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: not an external module
                continue
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


def parse_module(path: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    Raises :class:`LintError` on anything that prevents analysis —
    unreadable file, undecodable bytes, syntax error — so the engine can
    turn the failure into a structured X304 finding instead of crashing.
    """
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise LintError(f"cannot decode {path} as UTF-8: {exc}") from exc
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(f"syntax error in {path}: {exc}") from exc
    except ValueError as exc:  # e.g. NUL bytes on some Python versions
        raise LintError(f"cannot parse {path}: {exc}") from exc
    source_lines = source.splitlines()
    return ModuleInfo(
        path=path,
        tree=tree,
        source_lines=source_lines,
        imports=_build_import_table(tree),
        suppressions=_parse_suppressions(source_lines),
        disable_comments=_parse_disable_comments(source_lines),
    )


@dataclass
class ProjectContext:
    """Everything project-level rules need: all modules plus repo layout."""

    modules: List[ModuleInfo]
    #: Repository root (directory holding pyproject.toml) when detectable;
    #: benchmark/test conformance rules are skipped without it.
    repo_root: Optional[Path] = None

    def module_by_relpath(self, suffix: str) -> Optional[ModuleInfo]:
        for info in self.modules:
            if str(info.path).endswith(suffix):
                return info
        return None

    @property
    def tests_dir(self) -> Optional[Path]:
        if self.repo_root is None:
            return None
        candidate = self.repo_root / "tests"
        return candidate if candidate.is_dir() else None


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def resolve_call_name(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute, resolving import aliases.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; a bare ``default_rng`` imported via
    ``from numpy.random import default_rng`` resolves the same way.
    Unresolvable heads (local variables, attributes of self) return None.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head not in imports:
        return None
    canonical = imports[head]
    return f"{canonical}.{rest}" if rest else canonical
