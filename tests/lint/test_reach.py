"""X305 unreachable-module: every module must be importable from an
entry point (a module with an ``if __name__ == "__main__":`` guard)."""

import textwrap
from pathlib import Path

from tussle.lint import run_lint

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


def test_scan_without_an_entry_point_reports_nothing(tmp_path):
    assert unreachable(tmp_path, {
        "pkg/__main__.py": "from pkg.live import run\n",
        "pkg/dead.py": "thing = 1\n",
    }) == []
