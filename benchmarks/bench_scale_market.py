"""Benchmark: scalar Market vs VectorMarket on the E01 lock-in config.

Times one full market run (30 rounds) under both backends at growing
population sizes and asserts the vectorized kernels deliver the speedup
that justifies their existence: >= 10x at N=10^4, timed with the
sanctioned :class:`tussle.obs.Profiler`.

The 10^3/10^4 tiers are blocking (the CI ``scale`` job runs them); the
10^5 scalar run takes ~90 s, so that tier and the 10^6 vector-only round
live behind the ``slow``/``large`` markers.
"""

import pytest

from tussle.econ.market import Market
from tussle.obs import Profiler
from tussle.scale.large import lockin_market_spec
from tussle.scale.vmarket import VectorMarket

ROUNDS = 30
SWITCHING_COST = 3.0
SEED = 7
SPEEDUP_FLOOR_AT_1E4 = 10.0


def _time_backends(n_consumers, profiler, repeats=3):
    """Best-of-N wall time for a full run of each backend at ``n``."""
    for _ in range(repeats):
        spec = lockin_market_spec(SWITCHING_COST, n_consumers, seed=SEED)
        scalar = Market(consumers=spec.pop("batch").to_consumers(), **spec)
        with profiler.time(f"scalar/{n_consumers}"):
            scalar.run(ROUNDS)
        vector = VectorMarket(**lockin_market_spec(SWITCHING_COST,
                                                   n_consumers, seed=SEED))
        with profiler.time(f"vector/{n_consumers}"):
            vector.run(ROUNDS)
    return (profiler.min_seconds(f"scalar/{n_consumers}"),
            profiler.min_seconds(f"vector/{n_consumers}"))


def test_vector_backend_speedup():
    """Blocking gate: >= 10x over the scalar loop at N=10^4."""
    profiler = Profiler()
    speedups = {}

    def measure():
        for n in (1_000, 10_000):
            scalar_s, vector_s = _time_backends(n, profiler)
            speedups[str(n)] = scalar_s / vector_s
        return speedups

    measure()
    assert speedups["10000"] >= SPEEDUP_FLOOR_AT_1E4, (
        f"vector backend only {speedups['10000']:.1f}x at N=10^4 "
        f"(floor {SPEEDUP_FLOOR_AT_1E4}x); timings "
        f"{ {k: profiler.total_seconds(k) for k in profiler.keys()} }")
    assert speedups["1000"] > 1.0


@pytest.mark.slow
def test_vector_backend_speedup_at_1e5():
    profiler = Profiler()

    def measure():
        scalar_s, vector_s = _time_backends(100_000, profiler, repeats=1)
        return scalar_s / vector_s

    speedup = measure()
    assert speedup >= 20.0


@pytest.mark.slow
@pytest.mark.large
def test_million_agent_round_within_budget():
    """A warm N=10^6 vector round stays under a second."""
    market = VectorMarket(**lockin_market_spec(SWITCHING_COST, 1_000_000,
                                               seed=SEED))
    market.step()  # pay first-touch allocation outside the timed region
    profiler = Profiler()

    def one_round():
        with profiler.time("vector-round/1000000"):
            market.step()

    for _ in range(3):
        one_round()
    assert profiler.min_seconds("vector-round/1000000") < 1.0
