"""Property-based tests (hypothesis) on netsim invariants.

**Conservation** must hold for *any* input, not just the fixtures the
unit tests pin: every packet a batch offers is accounted for at every
round (delivered + failed + still-in-flight always equals the batch
size), and the final round leaves nothing in flight.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tussle.netsim.topology import (
    dumbbell_topology,
    line_topology,
    star_topology,
)
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

