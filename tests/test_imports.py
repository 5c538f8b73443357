"""Entry modules import cleanly in a fresh interpreter.

An import cycle only shows when its first module is the first one
loaded, and a test run loads modules in whatever order its tests
happen to import them.  So each entry point is imported here in its
own interpreter, the way ``python -m`` and the benchmark workloads
load it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tussle

SRC = str(Path(tussle.__file__).resolve().parents[1])

ENTRY_MODULES = (
    "tussle.scale.large",
    "tussle.experiments.p02_depeering_war",
    "tussle.__main__",
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
