"""Suite-wide guards for the tier-1 tests.

Determinism: Hypothesis runs under the ``tier1`` profile, which
derandomizes every property test (examples derived from the test
itself, no example database), so the suite's verdict never depends on a
random draw or on what an earlier run saved.  Exploratory search is the
``explore`` profile, selected with Hypothesis's own flag:
``python -m pytest --hypothesis-profile explore``.

Hangs: every test runs under a stdlib ``faulthandler`` watchdog that
dumps all thread stacks and exits the process once a single test has
taken ``HANG_GUARD_SECONDS`` — generous enough for the slow matrix
tiers, but a hung worker or loop can never wedge the run.  No plugin is
needed.
"""

import faulthandler
import os
import sys

import pytest
from hypothesis import settings

#: Wall-clock budget for one test, setup and teardown included.
HANG_GUARD_SECONDS = 600

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=1000)
settings.load_profile("tier1")

_GUARD_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is suspended here; keep a handle on the real stderr
    # so a hang's stack dump is not swallowed with the test's output.
    config.stash[_GUARD_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_GUARD_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        HANG_GUARD_SECONDS, exit=True, file=item.config.stash[_GUARD_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
