"""The lazy contract: package exports and the experiment registry load a
module when a name in it is first read, and resolve to the very object
that module defines.

Each package's export table is read here with the lint's parser
(``tussle.lint.context.lazy_entries``), so the runtime helper and the
static reading of the same table are held to each other.
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

import tussle
from tussle._lazy import exports
from tussle.experiments import ALL_EXPERIMENTS
from tussle.lint.context import lazy_entries
from tests.test_imports import run_fresh

PACKAGE_DIR = Path(tussle.__file__).resolve().parent

#: Every package that states its exports as a lazy table.
LAZY_PACKAGES = ("actornet", "core", "econ", "experiments", "gametheory",
                 "netsim", "obs", "peering", "resil", "routing", "scale",
                 "sweep", "topogen", "trust")


def table(package):
    """``{exported name: (module, attribute)}`` as the lint reads it."""
    path = PACKAGE_DIR / package / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {entry.key: (entry.module, entry.name)
            for entry in lazy_entries(tree, f"tussle.{package}")
            if not entry.registry}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_export_is_the_object_its_module_defines(package):
    module = importlib.import_module(f"tussle.{package}")
    entries = table(package)
    assert entries and set(module.__all__) == set(entries)
    listed = dir(module)
    for name in module.__all__:
        source, attribute = entries[name]
        assert getattr(module, name) is getattr(
            importlib.import_module(source), attribute), name
        assert name in listed
    # Forwarded, not cached: the defining module holds the one binding.
    assert not set(module.__all__) & set(vars(module))


def test_unknown_export_is_an_attribute_error():
    import tussle.peering

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tussle.peering.nope
    assert not hasattr(tussle.peering, "nope")


def test_registry_holds_the_28_functions_themselves():
    assert len(ALL_EXPERIMENTS) == 28
    for experiment_id, run in ALL_EXPERIMENTS.items():
        module = importlib.import_module(run.__module__)
        assert getattr(module, run.__name__) is run, experiment_id
        assert ALL_EXPERIMENTS[experiment_id] is run
        assert "seed" in inspect.signature(run).parameters
    from tussle.experiments import run_e01, run_l02
    assert run_e01 is ALL_EXPERIMENTS["E01"]
    assert run_l02 is ALL_EXPERIMENTS["L02"]


def test_registry_is_read_only():
    with pytest.raises(TypeError):
        ALL_EXPERIMENTS["Z99"] = print
    assert "Z99" not in ALL_EXPERIMENTS
    assert ALL_EXPERIMENTS.get("Z99") is None


def test_listing_the_registry_imports_no_experiment():
    result = run_fresh(
        "import sys\n"
        "from tussle.experiments import ALL_EXPERIMENTS\n"
        "ids = sorted(ALL_EXPERIMENTS)\n"
        "assert len(ALL_EXPERIMENTS) == 28 and 'P02' in ALL_EXPERIMENTS\n"
        "print(len(ids), sorted(m for m in sys.modules\n"
        "      if m.startswith('tussle.experiments.')\n"
        "      or m == 'tussle.scale.large'))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "28 []"


def test_lookup_imports_only_that_experiment():
    result = run_fresh(
        "import sys\n"
        "from tussle.experiments import ALL_EXPERIMENTS\n"
        "ALL_EXPERIMENTS['E05']\n"
        "print(sorted(m for m in sys.modules\n"
        "      if m.startswith('tussle.experiments.')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ("['tussle.experiments.common', "
                                     "'tussle.experiments.e05_firewalls']")


def test_resilient_executor_loads_experiments_before_forking():
    """Each worker inherits the experiments its tasks name."""
    result = run_fresh(textwrap.dedent("""
        import sys
        from tussle.sweep import ResilientExecutor, SweepSpec
        from tussle.sweep import executors
        from tussle.sweep.executors import cell_task

        wanted = ("tussle.experiments.e05_firewalls",
                  "tussle.experiments.p01_paid_peering")
        at_fork = []
        start = executors._Worker.__init__

        def spy(self, name):
            at_fork.append(all(m in sys.modules for m in wanted))
            start(self, name)

        executors._Worker.__init__ = spy
        spec = SweepSpec(experiment_ids=["E05", "P01"], seeds=[0], grid={})
        tasks = [cell_task(cell) for cell in spec.cells()]
        assert not any(m in sys.modules for m in wanted)
        outputs = list(ResilientExecutor(jobs=2, timeout=60).imap(tasks))
        print(at_fork, sorted(o["payload"]["status"] for o in outputs))
    """))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[True, True] ['ok', 'ok']"


@pytest.mark.parametrize("entries", [
    {".mod": ("mod",)},                         # shadowed by its submodule
    {".mod": ("thing",), ".other": ("thing",)},  # exported twice
])
def test_inconsistent_table_fails_at_import(tmp_path, entries):
    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "mod.py").write_text("mod = thing = 1\n")
    (package / "other.py").write_text("thing = 2\n")
    (package / "__init__.py").write_text(
        "from tussle._lazy import exports\n"
        f"__getattr__, __dir__, __all__ = exports(__name__, {entries!r})\n")
    result = run_fresh(f"import sys\nsys.path.insert(0, {str(tmp_path)!r})\n"
                       "import lazypkg")
    assert result.returncode != 0
    assert "ImportError" in result.stderr


def test_exports_rejects_a_submodule_name_in_process():
    # tussle.sweep has a submodule named ``aggregate``: exporting the
    # function of that name would be rebound to the module on import.
    with pytest.raises(ImportError, match="aggregate"):
        exports("tussle.sweep", {".aggregate": ("aggregate",)})
