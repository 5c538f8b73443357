"""Entry modules import cleanly, and cheaply, in a fresh interpreter.

An import cycle only shows when its first module is the first one
loaded, and a test run loads modules in whatever order its tests
happen to import them.  So each entry point is imported here in its
own interpreter, the way ``python -m`` and the benchmark workloads
load it.  The same fresh interpreters check what an import costs:
``import tussle`` loads only the error taxonomy, each benchmark entry
module loads only the modules its run uses (package exports and the
experiment registry are lazy), none loads scipy or networkx, and
running every registry experiment loads no scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tussle

SRC = str(Path(tussle.__file__).resolve().parents[1])

#: The modules the benchmark workloads import before their first pass.
BENCHMARK_ENTRY_MODULES = (
    "tussle.scale.large",
    "tussle.experiments.p02_depeering_war",
    "tussle.__main__",
)

ENTRY_MODULES = BENCHMARK_ENTRY_MODULES + (
    "tussle.scale.__main__",
    "tussle.peering.value",
)


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ENTRY_MODULES)
def test_module_imports_cold(module):
    result = run_fresh(f"import {module}")
    assert result.returncode == 0, result.stderr


def test_scale_package_does_not_load_the_parity_harness():
    result = run_fresh("import sys, tussle.scale; "
                       "assert 'tussle.scale.parity' not in sys.modules; "
                       "assert 'tussle.experiments' not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_package_import_loads_only_the_error_taxonomy():
    result = run_fresh("import sys, tussle; "
                       "print(sorted(m for m in sys.modules "
                       "if m.startswith('tussle.')))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['tussle.errors']"


@pytest.mark.parametrize("module", BENCHMARK_ENTRY_MODULES)
def test_benchmark_entry_module_loads_no_scipy_or_networkx(module):
    result = run_fresh(f"import sys, {module}; "
                       "print(sorted(m for m in ('scipy', 'networkx') "
                       "if m in sys.modules))")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_registry_loads_no_scipy():
    result = run_fresh("import sys\n"
                       "from tussle.experiments import ALL_EXPERIMENTS\n"
                       "for run in ALL_EXPERIMENTS.values():\n"
                       "    run()\n"
                       "print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def loaded_after(statement):
    """The ``tussle.*`` modules a fresh interpreter holds after ``statement``."""
    result = run_fresh(f"import sys\n{statement}\n"
                       "print(' '.join(sorted(m for m in sys.modules "
                       "if m.startswith('tussle.'))))")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_depeering_war_loads_only_its_own_experiment():
    loaded = loaded_after("import tussle.experiments.p02_depeering_war")
    experiments = {m for m in loaded if m.startswith("tussle.experiments.")}
    assert experiments == {"tussle.experiments.common",
                           "tussle.experiments.p02_depeering_war"}
    unused = ("core", "econ", "actornet", "trust", "resil", "sweep")
    assert not {m for m in loaded
                if m.split(".")[1] in unused}, sorted(loaded)


def test_cli_loads_no_experiment_before_parsing_argv():
    loaded = loaded_after("import tussle.__main__")
    assert not {m for m in loaded if m.startswith("tussle.experiments.")}


def test_large_scale_market_loads_no_netsim_backend():
    loaded = loaded_after("import tussle.scale.large")
    netsim_side = {f"tussle.scale.{name}" for name in (
        "flowsim", "narrays", "nkernels", "vforwarding", "vrouting",
        "tmatrix")}
    assert not loaded & netsim_side


def test_list_loads_no_experiment():
    """``tussle list`` prints module names from the registry table."""
    loaded = loaded_after(
        "import contextlib, io\n"
        "from tussle.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['list']) == 0")
    assert not {m for m in loaded if m.startswith("tussle.experiments.")}
    assert "tussle.scale.large" not in loaded
