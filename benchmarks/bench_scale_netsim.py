"""Benchmark: scalar ForwardingEngine vs the vector/flow netsim backends.

Times whole-batch forwarding under the scalar and vectorized engines at
growing packet counts and asserts the kernels deliver the speedup that
justifies their existence: >= 10x at 10^4 packets on a ~30-node
topology.  A second gate holds the flow-level backend to its headline:
routing a 10^6-flow population in seconds.  Timings land in
``benchmarks/results/bench_scale_netsim.json`` via the sanctioned
:mod:`tussle.obs` wall-clock channel.

The 10^3/10^4 tiers are blocking (the CI ``scale`` job runs them); the
10^5-packet scalar run and the million-flow tier live behind the
``slow``/``large`` markers.
"""

import pytest

from tussle.netsim.forwarding import ForwardingEngine
from tussle.netsim.topology import dumbbell_topology
from tussle.obs import Profiler
from tussle.obs.bench import bench_record, write_bench_record
from tussle.scale.flowsim import FlowSim, random_flows
from tussle.scale.narrays import (
    NetIndex,
    PacketArrays,
    packets_from_traffic,
    traffic_stream,
)
from tussle.scale.vforwarding import VectorForwardingEngine

from conftest import RESULTS_DIR

SEED = 7
SPEEDUP_FLOOR_AT_1E4 = 10.0
MILLION_FLOW_BUDGET_S = 5.0


def _topology():
    """~30 nodes with multi-hop paths: 14 sources, 14 sinks, 2 routers."""
    return dumbbell_topology(14, 14)


def _time_backends(n_packets, profiler, repeats=3):
    """Best-of-N wall time to forward one batch on each backend."""
    network = _topology()
    names = network.node_names()
    traffic = traffic_stream(names, n_packets, SEED)

    scalar = ForwardingEngine(network)
    scalar.install_shortest_path_tables()
    vector = VectorForwardingEngine(network)
    vector.install_shortest_path_tables()
    index = NetIndex.from_network(network)

    for _ in range(repeats):
        packets = packets_from_traffic(traffic)
        with profiler.time(f"scalar/{n_packets}"):
            for packet in packets:
                scalar.send(packet)
        batch = PacketArrays.from_traffic(traffic, index)
        with profiler.time(f"vector/{n_packets}"):
            vector.send_batch(batch)
    return (profiler.min_seconds(f"scalar/{n_packets}"),
            profiler.min_seconds(f"vector/{n_packets}"))


def _persist(bench_id, profiler, speedups):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = bench_record(bench_id, profiler=profiler, speedups=speedups)
    write_bench_record(RESULTS_DIR, record)


def test_vector_backend_speedup():
    """Blocking gate: >= 10x over per-packet forwarding at 10^4 packets."""
    profiler = Profiler()
    speedups = {}

    def measure():
        for n in (1_000, 10_000):
            scalar_s, vector_s = _time_backends(n, profiler)
            speedups[str(n)] = scalar_s / vector_s
        return speedups

    measure()
    _persist("scale_netsim", profiler, speedups)
    assert speedups["10000"] >= SPEEDUP_FLOOR_AT_1E4, (
        f"vector backend only {speedups['10000']:.1f}x at 10^4 packets "
        f"(floor {SPEEDUP_FLOOR_AT_1E4}x); timings "
        f"{ {k: profiler.total_seconds(k) for k in profiler.keys()} }")
    assert speedups["1000"] > 1.0


def test_flow_backend_routes_1e5_flows_fast():
    """Blocking: 10^5 flows route well inside a second."""
    sim = FlowSim(_topology())
    flows = random_flows(100_000, len(sim.index), seed=SEED)
    profiler = Profiler()

    def route():
        with profiler.time("flow-route/100000"):
            report = sim.route(flows)
        return report

    for _ in range(3):
        report = route()
    _persist("scale_flowsim_1e5", profiler, {})
    assert report.n_flows == 100_000
    assert profiler.min_seconds("flow-route/100000") < 1.0


@pytest.mark.slow
def test_vector_backend_speedup_at_1e5():
    profiler = Profiler()

    def measure():
        scalar_s, vector_s = _time_backends(100_000, profiler, repeats=1)
        return scalar_s / vector_s

    speedup = measure()
    _persist("scale_netsim_1e5", profiler, {"100000": speedup})
    assert speedup >= SPEEDUP_FLOOR_AT_1E4


@pytest.mark.slow
@pytest.mark.large
def test_million_flow_population_within_budget():
    """The headline: a 10^6-flow population routes in seconds."""
    sim = FlowSim(_topology())
    flows = random_flows(1_000_000, len(sim.index), seed=SEED)
    profiler = Profiler()

    def route():
        with profiler.time("flow-route/1000000"):
            return sim.route(flows)

    for _ in range(3):
        report = route()
    _persist("scale_flowsim_1e6", profiler, {})
    assert report.n_flows == 1_000_000
    assert report.delivered + report.no_route + report.link_down \
        + report.ttl_exceeded == 1_000_000
    assert profiler.min_seconds("flow-route/1000000") < MILLION_FLOW_BUDGET_S
