"""X305 unreachable-module: every module must be importable from an
entry point (a module with an ``if __name__ == "__main__":`` guard).

One level down, every top-level function and class of the package must
be used by code that is not a test.
"""

import ast
import textwrap
from collections import Counter
from pathlib import Path

from tussle.lint import run_lint
from tussle.lint.context import lazy_entries, module_dotted_name

REPO = Path(__file__).resolve().parents[2]

#: Where non-test uses can live; ``tests/`` is deliberately not scanned.
NON_TEST_CODE = ("src/tussle", "benchmarks", "examples", "perfbench")

LIVE = {
    "pkg/live.py": """
        def run():
            return 1
    """,
    "pkg/__main__.py": """
        from pkg.live import run

        if __name__ == "__main__":
            run()
    """,
}


def unreachable(tmp_path, files):
    """Write a fixture tree, lint it and list the X305 paths."""
    for rel, source in {"pkg/__init__.py": "", **LIVE, **files}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    report = run_lint([tmp_path / "pkg"])
    return sorted(Path(f.path).relative_to(tmp_path).as_posix()
                  for f in report.active if f.rule_id == "X305")


def test_module_imported_only_by_its_package_init_is_reported(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/__init__.py": "from .only_init import helper\n",
        "pkg/only_init.py": "def helper():\n    return 2\n",
    }) == ["pkg/only_init.py"]


def test_module_reached_through_a_reexported_name_is_not_reported(tmp_path):
    # Only the module defining the imported name is reached, not the
    # __init__'s other re-exports.
    assert unreachable(tmp_path, {
        "pkg/__init__.py": ("from .other import unused\n"
                            "from .reexported import helper\n"),
        "pkg/other.py": "def unused():\n    return 1\n",
        "pkg/reexported.py": "def helper():\n    return 2\n",
        "pkg/__main__.py": """
            from pkg import helper
            from pkg.live import run

            if __name__ == "__main__":
                run(helper())
        """,
    }) == ["pkg/other.py"]


def test_module_reached_through_a_function_level_import(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/lazy.py": "def go():\n    return 3\n",
        "pkg/__main__.py": """
            from pkg.live import run

            def main():
                from pkg import lazy
                return lazy.go() + run()

            if __name__ == "__main__":
                main()
        """,
    }) == []


def test_dead_module_importing_a_dead_module_reports_both(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/dead_a.py": "from .dead_b import thing\n",
        "pkg/dead_b.py": "thing = 1\n",
    }) == ["pkg/dead_a.py", "pkg/dead_b.py"]


def test_submodule_the_init_imports_as_a_module_is_not_reported(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/__init__.py": "from . import registered\n",
        "pkg/registered.py": "RULES = []\n",
    }) == []


def test_name_defined_in_the_init_runs_all_its_imports(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/__init__.py": "from .table import ROWS\n\nREGISTRY = dict(ROWS)\n",
        "pkg/table.py": "ROWS = [('a', 1)]\n",
        "pkg/__main__.py": """
            from pkg import REGISTRY
            from pkg.live import run

            if __name__ == "__main__":
                run(REGISTRY)
        """,
    }) == []


#: A lazy subpackage: its ``__init__`` imports only the helper, and its
#: tables name ``pkg.sub.exported`` and ``pkg.sub.registered``.
LAZY = {
    "pkg/lazy.py": """
        def exports(package, table, registry=None):
            return None, None, []

        def Registry(package, table):
            return table
    """,
    "pkg/sub/__init__.py": """
        from ..lazy import Registry, exports

        REGISTRY = Registry(__name__, {"A": ".registered:run_a"})

        __getattr__, __dir__, __all__ = exports(__name__, {
            ".exported": ("helper",),
        }, REGISTRY)
    """,
    "pkg/sub/exported.py": "def helper():\n    return 2\n",
    "pkg/sub/registered.py": "def run_a():\n    return 3\n",
}


def lazy_main(statement):
    return {"pkg/__main__.py": f"""
        {statement}
        from pkg.live import run

        if __name__ == "__main__":
            run()
    """}


def test_lazy_table_entries_load_only_when_named(tmp_path):
    # The helper runs with the package; neither table's modules do.
    assert unreachable(tmp_path, {**LAZY, **lazy_main("import pkg.sub")}) == [
        "pkg/sub/exported.py", "pkg/sub/registered.py"]


def test_lazy_export_is_the_reexport_it_replaces(tmp_path):
    assert unreachable(tmp_path, {
        **LAZY, **lazy_main("from pkg.sub import helper")}) == [
        "pkg/sub/registered.py"]


def test_registry_entries_load_with_the_registry(tmp_path):
    assert unreachable(tmp_path, {
        **LAZY, **lazy_main("from pkg.sub import REGISTRY")}) == [
        "pkg/sub/exported.py"]


def test_registry_function_is_exported_by_name(tmp_path):
    assert unreachable(tmp_path, {
        **LAZY, **lazy_main("from pkg.sub import run_a")}) == [
        "pkg/sub/exported.py"]


def test_scan_without_an_entry_point_reports_nothing(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/__main__.py": "from pkg.live import run\n",
        "pkg/dead.py": "thing = 1\n",
    }) == []


def used_names(tree, count_imports=True):
    """Every name ``tree`` uses as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif count_imports and isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unused_definitions():
    """Top-level functions and classes of non-``__init__`` modules under
    ``src/tussle`` that no code outside their own body names.

    ``__all__`` entries are strings, so they never count; a package
    ``__init__``'s imports (its re-exports) and its lazy export table
    entries do not count either.  A registry table entry counts as the
    name it replaces (``{"E01": run_e01}``).
    """
    uses = Counter()
    definitions = []
    for top in NON_TEST_CODE:
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            is_init = path.name == "__init__.py"
            uses.update(used_names(tree, count_imports=not is_init))
            if is_init:
                uses.update(entry.name for entry in
                            lazy_entries(tree, module_dotted_name(path))
                            if entry.registry)
            if top == "src/tussle" and not is_init:
                definitions += [
                    (path, node) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = [f"{path.relative_to(REPO / 'src').as_posix()}:{node.name}"
              for path, node in definitions
              if uses[node.name] == Counter(used_names(node))[node.name]]
    return unused, len(definitions)


def test_every_definition_is_used_outside_tests():
    unused, checked = unused_definitions()
    assert checked, "found no definitions under src/tussle"
    assert not unused, (
        "only tests use these definitions; delete them or move them into "
        "the tests that need them:\n  " + "\n  ".join(unused))
