"""Shared fixture for the self-lint tests.

``test_self_clean.py`` (the gate) and ``test_flow_self.py`` (the
positive proofs) inspect the same full-tree lint of ``src/tussle``; it
runs once per session.
"""

from pathlib import Path

import pytest

import tussle
from tussle.lint import run_lint

PACKAGE_DIR = Path(tussle.__file__).parent


@pytest.fixture(scope="session")
def tree_report():
    return run_lint([PACKAGE_DIR])
