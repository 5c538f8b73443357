"""Every example script runs to completion in a fresh interpreter.

The examples are the cold-start path a reader takes first: each one
imports only the subpackages its scenario needs, then narrates it.
"""

from pathlib import Path

import pytest

from tests.test_imports import run_fresh

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))


def test_examples_are_found():
    assert SCRIPTS, f"no example scripts under {EXAMPLES}"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_example_runs(script):
    result = run_fresh("import runpy; "
                       f"runpy.run_path({str(script)!r}, run_name='__main__')")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), f"{script.name} printed nothing"
