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

Shared work: the healthy in-process registry sweep is the reference of
several slow tiers; ``registry_sweep`` runs each base seed of it once
per session.
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


@pytest.fixture(scope="session")
def registry_sweep():
    """``sweep(seeds)``: the healthy in-process sweep of every experiment.

    Cells are identity-seeded, so a seed's cells do not depend on which
    other seeds share the sweep.  Each seed is swept once per session;
    a request merges the per-seed reports in the scheduler's cell order
    and sums their counters.
    """
    from tussle.experiments import ALL_EXPERIMENTS
    from tussle.sweep import (
        InProcessExecutor,
        SweepReport,
        SweepSpec,
        canonical_params,
        run_sweep,
    )

    by_seed = {}

    def sweep(seeds):
        for seed in seeds:
            if seed not in by_seed:
                spec = SweepSpec(experiment_ids=sorted(ALL_EXPERIMENTS),
                                 seeds=[seed], grid={})
                by_seed[seed] = run_sweep(spec, executor=InProcessExecutor())
        reports = [by_seed[seed] for seed in seeds]
        cells = sorted((cell for report in reports for cell in report.cells),
                       key=lambda cell: (cell["experiment_id"],
                                         canonical_params(cell["params"]),
                                         cell["base_seed"]))
        stats = {key: sum(report.stats[key] for report in reports)
                 for key in reports[0].stats}
        return SweepReport(cells=cells, stats=stats)

    return sweep
