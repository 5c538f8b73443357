"""Property-based tests (hypothesis) on netsim invariants.

Three invariants the forwarding substrate must hold for *any* input, not
just the fixtures the unit tests pin:

* **Conservation** — every packet a batch offers is accounted for at
  every round: delivered + failed + still-in-flight always equals the
  batch size, and the final round leaves nothing in flight.
* **FIB determinism** — longest-prefix lookup does not depend on the
  order entries were inserted (after last-wins dedup, which is itself a
  property here).
* **Work conservation** — the shared bottleneck serves exactly what is
  offered when uncongested and exactly its capacity when congested; it
  neither creates nor destroys rate.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from tussle.netsim.forwarding import PrefixFib
from tussle.netsim.topology import (
    dumbbell_topology,
    line_topology,
    star_topology,
)
from tussle.netsim.transport import AIMDFlow, CheaterFlow, SharedBottleneck
from tussle.scale.narrays import NetIndex, PacketArrays, traffic_stream
from tussle.scale.vforwarding import VectorForwardingEngine

_BUILDERS = (
    lambda: line_topology(6),
    lambda: star_topology(8),
    lambda: dumbbell_topology(4, 4),
)


class TestForwardingConservation:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           builder=st.sampled_from(_BUILDERS),
           n_packets=st.integers(min_value=1, max_value=80))
    @settings(max_examples=40, deadline=None)
    def test_every_packet_is_accounted_for_each_round(self, seed, builder,
                                                      n_packets):
        network = builder()
        engine = VectorForwardingEngine(network)
        engine.install_shortest_path_tables()
        traffic = traffic_stream(network.node_names(), n_packets, seed)
        batch = PacketArrays.from_traffic(traffic,
                                          NetIndex.from_network(network))
        rounds = engine.send_batch(batch)

        resolved = 0
        for record in rounds:
            resolved += (record.delivered + record.no_route
                         + record.link_down + record.ttl_exceeded)
            assert resolved + record.in_flight == n_packets
        assert rounds[-1].in_flight == 0
        assert resolved == n_packets


_prefixes = st.text(alphabet="abc", min_size=0, max_size=4)
_hops = st.sampled_from(["h1", "h2", "h3"])


class TestPrefixFibDeterminism:
    @given(entries=st.dictionaries(_prefixes, _hops, max_size=8),
           name=st.text(alphabet="abc", min_size=0, max_size=6),
           order=st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_lookup_invariant_under_permuted_insertion(self, entries, name,
                                                       order):
        sorted_fib = PrefixFib()
        for prefix in sorted(entries):
            sorted_fib.insert(prefix, entries[prefix])

        shuffled = list(entries.items())
        order.shuffle(shuffled)
        shuffled_fib = PrefixFib()
        for prefix, hop in shuffled:
            shuffled_fib.insert(prefix, hop)

        assert shuffled_fib.lookup(name) == sorted_fib.lookup(name)
        assert shuffled_fib.entries() == sorted_fib.entries()

    @given(hops=st.lists(_hops, min_size=1, max_size=5))
    def test_duplicate_prefixes_last_insert_wins(self, hops):
        fib = PrefixFib()
        for hop in hops:
            fib.insert("ab", hop)
        assert len(fib) == 1
        assert fib.lookup("abc") == hops[-1]


class TestBottleneckWorkConservation:
    @given(rates=st.lists(st.floats(min_value=0.1, max_value=50.0,
                                    allow_nan=False),
                          min_size=1, max_size=12),
           cheaters=st.integers(min_value=0, max_value=3),
           capacity=st.floats(min_value=1.0, max_value=100.0,
                              allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_served_totals_offered_or_capacity(self, rates, cheaters,
                                               capacity):
        flows = [AIMDFlow(name=f"f{i}", rate=rate)
                 for i, rate in enumerate(rates)]
        flows += [CheaterFlow(name=f"c{i}", rate=2.0)
                  for i in range(cheaters)]
        link = SharedBottleneck(capacity, flows)
        offered = sum(flow.rate for flow in flows)
        served = link.step()

        total = sum(served.values())
        if offered > capacity:
            assert math.isclose(total, capacity, rel_tol=1e-9)
        else:
            assert math.isclose(total, offered, rel_tol=1e-9)
        assert all(share >= 0.0 for share in served.values())
