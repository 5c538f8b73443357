"""Edge cases of the forwarding substrate, pinned on both backends.

The shapes parity sweeps statistically are nailed down here one by one:
zero-capacity links, self-loop routes, empty/degenerate topologies,
links failing between batches, and reinstalled or invalid tables.  Where a case
touches both backends, both are asserted — the scalar engine is the
reference and the vector engine must not quietly disagree on corners.
"""

import pytest

from tussle.errors import RoutingError, ScaleError
from tussle.netsim.forwarding import DeliveryStatus, ForwardingEngine
from tussle.netsim.packets import make_packet
from tussle.netsim.topology import Network, dumbbell_topology, line_topology
from tussle.scale.narrays import NetIndex, PacketArrays, traffic_stream
from tussle.scale.vforwarding import VectorForwardingEngine


def two_nodes(capacity=10.0):
    net = Network()
    net.add_node("a")
    net.add_node("b")
    net.add_link("a", "b", latency=0.01, capacity=capacity)
    return net


class TestZeroCapacityLinks:
    def test_scalar_treats_zero_capacity_as_unusable(self):
        engine = ForwardingEngine(two_nodes(capacity=0.0))
        engine.install_shortest_path_tables()
        receipt = engine.send(make_packet("a", "b"))
        assert receipt.status is DeliveryStatus.LINK_DOWN
        assert "has no capacity" in receipt.diagnostic

    def test_vector_agrees_zero_capacity_is_link_down(self):
        net = two_nodes(capacity=0.0)
        engine = VectorForwardingEngine(net)
        engine.install_shortest_path_tables()
        batch = PacketArrays.from_traffic([("a", "b", 0)],
                                          NetIndex.from_network(net))
        rounds = engine.send_batch(batch)
        assert sum(r.link_down for r in rounds) == 1
        assert engine.status_name(batch.status[0]) == "link-down"

    def test_zero_capacity_bottleneck_blocks_cross_traffic_only(self):
        net = dumbbell_topology(3, 3, bottleneck_capacity=0.0)
        engine = ForwardingEngine(net)
        engine.install_shortest_path_tables()
        same_side = engine.send(make_packet("src0", "src1"))
        cross = engine.send(make_packet("src0", "dst0"))
        assert same_side.status is DeliveryStatus.DELIVERED
        assert cross.status is DeliveryStatus.LINK_DOWN


class TestSelfLoopRoutes:
    def test_scalar_self_loop_table_entry_is_link_down(self):
        net = two_nodes()
        engine = ForwardingEngine(net)
        engine.install_table("a", {"b": "a"})  # next hop = current node
        receipt = engine.send(make_packet("a", "b"))
        assert receipt.status is DeliveryStatus.LINK_DOWN

    def test_vector_self_loop_table_entry_is_link_down(self):
        net = two_nodes()
        engine = VectorForwardingEngine(net)
        engine.install_table("a", {"b": "a"})
        engine.install_table("b", {"a": "a"})
        batch = PacketArrays.from_traffic([("a", "b", 0)],
                                          NetIndex.from_network(net))
        engine.send_batch(batch)
        assert engine.status_name(batch.status[0]) == "link-down"

    def test_packet_already_at_destination_delivers_in_round_zero(self):
        net = two_nodes()
        engine = VectorForwardingEngine(net)
        engine.install_shortest_path_tables()
        batch = PacketArrays.from_traffic([("a", "a", 0)],
                                          NetIndex.from_network(net))
        rounds = engine.send_batch(batch)
        assert rounds[0].delivered == 1
        assert len(rounds) == 1
        assert engine.delivered_to(batch, 0) == "a"


class TestDegenerateTopologies:
    def test_empty_topology_rejects_traffic_stream(self):
        with pytest.raises(ScaleError):
            traffic_stream([], 5, seed=1)

    def test_single_node_rejects_traffic_stream(self):
        with pytest.raises(ScaleError):
            traffic_stream(["only"], 5, seed=1)

    def test_empty_batch_forwards_to_empty_history(self):
        net = two_nodes()
        engine = VectorForwardingEngine(net)
        engine.install_shortest_path_tables()
        batch = PacketArrays.from_traffic([], NetIndex.from_network(net))
        rounds = engine.send_batch(batch)
        assert len(rounds) == 1
        assert rounds[0].in_flight == 0
        assert engine.delivery_rate() == 0.0

    def test_no_tables_installed_means_no_route(self):
        net = two_nodes()
        scalar = ForwardingEngine(net)
        receipt = scalar.send(make_packet("a", "b"))
        assert receipt.status is DeliveryStatus.NO_ROUTE

        vector = VectorForwardingEngine(net)
        batch = PacketArrays.from_traffic([("a", "b", 0)],
                                          NetIndex.from_network(net))
        vector.send_batch(batch)
        assert vector.status_name(batch.status[0]) == "no-route"


class TestLinkFailureBetweenBatches:
    def test_vector_sees_failure_after_refresh(self):
        net = line_topology(3)
        engine = VectorForwardingEngine(net)
        engine.install_shortest_path_tables()
        index = NetIndex.from_network(net)

        batch = PacketArrays.from_traffic([("n0", "n2", 0)], index)
        engine.send_batch(batch)
        assert engine.status_name(batch.status[0]) == "delivered"

        net.fail_link("n1", "n2")
        engine.refresh_topology()
        batch = PacketArrays.from_traffic([("n0", "n2", 0)], index)
        engine.send_batch(batch)
        assert engine.status_name(batch.status[0]) == "link-down"
        # The packet made it one hop before hitting the dead link.
        assert int(batch.hops[0]) == 2

    def test_scalar_and_vector_agree_on_midpath_failure(self):
        net = line_topology(4)
        scalar = ForwardingEngine(net)
        scalar.install_shortest_path_tables()
        vector = VectorForwardingEngine(net)
        vector.install_shortest_path_tables()

        # Tables were computed while the link was up; it dies in transit.
        net.fail_link("n2", "n3")
        receipt = scalar.send(make_packet("n0", "n3"))
        vector.refresh_topology()
        batch = PacketArrays.from_traffic(
            [("n0", "n3", 0)], NetIndex.from_network(net))
        vector.send_batch(batch)
        assert receipt.status is DeliveryStatus.LINK_DOWN
        assert vector.status_name(batch.status[0]) == receipt.status.value
        assert int(batch.hops[0]) == len(receipt.path)
        assert float(batch.latency[0]) == receipt.latency


class TestDuplicateFibEntries:
    def test_reinstalling_a_table_replaces_it(self):
        net = line_topology(3)
        engine = ForwardingEngine(net)
        engine.install_table("n0", {"n2": "n1"})
        engine.install_table("n0", {"n2": "n1", "n1": "n1"})
        assert engine.tables["n0"] == {"n2": "n1", "n1": "n1"}

    def test_vector_rejects_unknown_next_hop(self):
        net = two_nodes()
        engine = VectorForwardingEngine(net)
        with pytest.raises(ScaleError):
            engine.install_table("a", {"b": "ghost"})

    def test_scalar_rejects_unknown_next_hop(self):
        net = two_nodes()
        engine = ForwardingEngine(net)
        with pytest.raises(RoutingError):
            engine.install_table("a", {"b": "ghost"})
