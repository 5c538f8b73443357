"""Benchmark: topology generation and valley-free convergence at scale.

Two blocking gates (the CI ``topogen`` job runs them):

* generating the default 10^3-AS tiered internet — twice, asserting
  byte-identical canonical JSON along the way — stays inside its
  budget;
* the valley-free fast path converges the full 10^3 x 10^3 RIB in
  under :data:`CONVERGENCE_BUDGET_S` seconds, the ISSUE's headline
  number (the scalar protocol takes minutes on the same graph).

The 10^4-AS tier (generation plus a 64-destination RIB) rides behind
the ``slow`` marker.  Timings land in ``benchmarks/results/`` via the
sanctioned :mod:`tussle.obs` wall-clock channel and feed the
``obs perf`` ledger.
"""

import pytest

from tussle.obs import Profiler
from tussle.obs.bench import bench_record, write_bench_record
from tussle.routing import PathVectorRouting
from tussle.scale.vrouting import converge_valley_free
from tussle.topogen import TopogenConfig, generate_internet, graph_to_json

from conftest import RESULTS_DIR

SEED = 0
GENERATION_BUDGET_S = 30.0
CONVERGENCE_BUDGET_S = 10.0


def _persist(bench_id, profiler, speedups=None):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = bench_record(bench_id, profiler=profiler,
                          speedups=speedups or {})
    write_bench_record(RESULTS_DIR, record)


def test_generate_1e3_deterministic_within_budget():
    """Blocking: the 10^3-AS graph generates fast and reproducibly."""
    config = TopogenConfig(n_ases=1000)
    profiler = Profiler()

    def generate_twice():
        with profiler.time("generate/1000"):
            first = graph_to_json(generate_internet(config, seed=SEED))
        with profiler.time("generate/1000"):
            second = graph_to_json(generate_internet(config, seed=SEED))
        return first, second

    first, second = generate_twice()
    _persist("topogen_generate_1e3", profiler)
    assert first == second, "same (config, seed) must be byte-identical"
    assert profiler.min_seconds("generate/1000") < GENERATION_BUDGET_S


def test_convergence_1e3_full_rib_within_budget():
    """Blocking: full-matrix valley-free convergence at 10^3 ASes in
    seconds — the reason converge_fast() exists."""
    network = generate_internet(
        TopogenConfig(n_ases=1000, router_detail="none"), seed=SEED)
    profiler = Profiler()

    def converge():
        proto = PathVectorRouting(network)
        with profiler.time("converge-fast/1000"):
            proto.converge_fast()
        return proto

    for _ in range(3):
        proto = converge()
    _persist("topogen_converge_1e3", profiler)
    asns = sorted(a.asn for a in network.ases)
    assert proto.reachable(asns[-1], asns[0])
    assert profiler.min_seconds("converge-fast/1000") < CONVERGENCE_BUDGET_S


def test_fast_path_beats_scalar_at_toy_scale():
    """Sanity speedup gate at a size the scalar protocol can still run."""
    network = generate_internet(
        TopogenConfig(n_ases=60, router_detail="none"), seed=SEED)
    profiler = Profiler()

    def measure():
        scalar = PathVectorRouting(network)
        with profiler.time("scalar/60"):
            scalar.converge()
        fast = PathVectorRouting(network)
        with profiler.time("fast/60"):
            fast.converge_fast()
        return scalar, fast

    for _ in range(3):
        measure()
    speedup = (profiler.min_seconds("scalar/60")
               / profiler.min_seconds("fast/60"))
    _persist("topogen_fastpath_60", profiler, {"60": speedup})
    assert speedup > 1.0, f"fast path slower than scalar ({speedup:.2f}x)"


@pytest.mark.slow
def test_generate_and_converge_1e4():
    """10^4 ASes: generation plus a 64-destination RIB, both in seconds."""
    config = TopogenConfig(n_ases=10_000, router_detail="none")
    profiler = Profiler()

    def run():
        with profiler.time("generate/10000"):
            network = generate_internet(config, seed=SEED)
        destinations = [a.asn for a in network.ases if a.tier == 3][:64]
        with profiler.time("converge-fast/10000x64"):
            rib = converge_valley_free(network, destinations=destinations)
        return rib

    rib = run()
    _persist("topogen_1e4", profiler)
    assert (rib.reachability_counts() == 10_000).all()
    assert profiler.min_seconds("converge-fast/10000x64") \
        < CONVERGENCE_BUDGET_S
