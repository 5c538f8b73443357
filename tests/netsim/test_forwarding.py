"""Tests for the forwarding engine: delivery, middleboxes, source routes."""

from dataclasses import replace

import pytest

from tussle.errors import RoutingError
from tussle.netsim.forwarding import DeliveryStatus, ForwardingEngine
from tussle.netsim.middlebox import (
    Action,
    Middlebox,
    PortFilterFirewall,
    Redirector,
    Verdict,
)
from tussle.netsim.packets import make_packet, port_for_app
from tussle.netsim.topology import Network, line_topology, star_topology


class SourceNat(Middlebox):
    """Outbound address translation: every source becomes one public name."""

    def __init__(self, name, public_name):
        super().__init__(name, discloses=False)
        self.public_name = public_name

    def process(self, packet):
        header = replace(packet.header, src=self.public_name)
        return self._record(
            packet, Verdict(Action.MODIFY, packet=replace(packet, header=header)))


@pytest.fixture
def line_engine():
    engine = ForwardingEngine(line_topology(4))
    engine.install_shortest_path_tables()
    return engine


class TestDelivery:
    def test_delivers_along_path(self, line_engine):
        receipt = line_engine.send(make_packet("n0", "n3"))
        assert receipt.status is DeliveryStatus.DELIVERED
        assert receipt.path == ["n0", "n1", "n2", "n3"]

    def test_latency_accumulates(self, line_engine):
        receipt = line_engine.send(make_packet("n0", "n3"))
        assert receipt.latency == pytest.approx(0.03)

    def test_delivery_to_self(self, line_engine):
        receipt = line_engine.send(make_packet("n0", "n0"))
        assert receipt.delivered
        assert receipt.path == ["n0"]

    def test_no_route_status(self):
        engine = ForwardingEngine(line_topology(3))
        # no tables installed
        receipt = engine.send(make_packet("n0", "n2"))
        assert receipt.status is DeliveryStatus.NO_ROUTE

    def test_link_down_status(self, line_engine):
        line_engine.network.fail_link("n1", "n2")
        receipt = line_engine.send(make_packet("n0", "n3"))
        assert receipt.status is DeliveryStatus.LINK_DOWN
        assert "n1" in receipt.diagnostic

    def test_routing_loop_detected(self):
        engine = ForwardingEngine(line_topology(3))
        engine.install_table("n0", {"n2": "n1"})
        engine.install_table("n1", {"n2": "n0"})
        receipt = engine.send(make_packet("n0", "n2"))
        assert receipt.status is DeliveryStatus.TTL_EXCEEDED

    def test_delivery_rate(self, line_engine):
        line_engine.send(make_packet("n0", "n3"))
        line_engine.network.fail_link("n0", "n1")
        line_engine.send(make_packet("n0", "n3"))
        assert line_engine.delivery_rate() == pytest.approx(0.5)

    def test_table_with_unknown_next_hop_rejected(self, line_engine):
        with pytest.raises(RoutingError):
            line_engine.install_table("n0", {"n3": "ghost"})


class TestMiddleboxesOnPath:
    def test_firewall_drop_produces_diagnostic(self, line_engine):
        line_engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"p2p"}))
        receipt = line_engine.send(make_packet("n0", "n3", application="p2p"))
        assert receipt.status is DeliveryStatus.DROPPED_BY_MIDDLEBOX
        assert receipt.interfering_node == "n1"
        assert "blocked by" in receipt.diagnostic

    def test_silent_firewall_gives_vague_diagnostic(self, line_engine):
        line_engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"p2p"},
                                     discloses=False))
        receipt = line_engine.send(make_packet("n0", "n3", application="p2p"))
        assert "fw" not in receipt.diagnostic
        assert "cause unknown" in receipt.diagnostic

    def test_redirector_changes_destination(self):
        net = star_topology(3)
        engine = ForwardingEngine(net)
        engine.install_shortest_path_tables()
        engine.attach_middlebox(
            "hub", Redirector("isp", port=25, new_destination="leaf2"))
        receipt = engine.send(make_packet("leaf0", "leaf1", application="smtp"))
        assert receipt.delivered
        assert receipt.delivered_to == "leaf2"

    def test_ledger_records_interference(self, line_engine):
        line_engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"p2p"}))
        line_engine.send(make_packet("n0", "n3", application="p2p"))
        assert line_engine.ledger.records

    def test_multiple_middleboxes_first_interferer_wins(self, line_engine):
        line_engine.attach_middlebox(
            "n1", PortFilterFirewall("fw1", blocked_applications={"p2p"}))
        line_engine.attach_middlebox(
            "n1", PortFilterFirewall("fw2", blocked_applications={"http"}))
        receipt = line_engine.send(make_packet("n0", "n3", application="http"))
        assert receipt.status is DeliveryStatus.DROPPED_BY_MIDDLEBOX

    def test_detach_middleboxes(self, line_engine):
        line_engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"http"}))
        line_engine.detach_middleboxes("n1")
        receipt = line_engine.send(make_packet("n0", "n3", application="http"))
        assert receipt.delivered

    def test_redirect_to_own_node_is_served_there(self):
        engine = ForwardingEngine(line_topology(4))
        engine.install_shortest_path_tables()
        engine.attach_middlebox("n1", Redirector(
            "n1", port=port_for_app("http"), new_destination="n1"))
        receipt = engine.send(make_packet("n0", "n3", application="http"))
        assert receipt.status is DeliveryStatus.REDIRECTED
        assert receipt.delivered  # served, just not by the origin
        assert receipt.delivered_to == "n1"

    def test_nat_on_path_rewrites_source(self):
        net = Network()
        for name in ("lan-pc", "natbox", "site"):
            net.add_node(name)
        net.add_link("lan-pc", "natbox")
        net.add_link("natbox", "site")
        engine = ForwardingEngine(net)
        engine.install_shortest_path_tables()
        engine.attach_middlebox("natbox", SourceNat("natbox", public_name="pub"))
        receipt = engine.send(make_packet("lan-pc", "site"))
        assert receipt.delivered
        assert receipt.packet.header.src == "pub"


class TestSourceRoutes:
    def test_source_route_honoured(self):
        net = star_topology(3)
        net.add_node("alt")
        net.add_link("alt", "leaf0")
        net.add_link("alt", "leaf1")
        engine = ForwardingEngine(net)
        engine.install_shortest_path_tables()
        packet = make_packet("leaf0", "leaf1",
                             source_route=["leaf0", "alt", "leaf1"])
        receipt = engine.send(packet)
        assert receipt.delivered
        assert receipt.path == ["leaf0", "alt", "leaf1"]

    def test_source_route_refused_when_disabled(self, line_engine):
        line_engine.honor_source_routes = False
        packet = make_packet("n0", "n3", source_route=["n0", "n1", "n2", "n3"])
        receipt = line_engine.send(packet)
        assert receipt.status is DeliveryStatus.SOURCE_ROUTE_REFUSED

    def test_source_route_over_missing_link_fails(self, line_engine):
        packet = make_packet("n0", "n3", source_route=["n0", "n2", "n3"])
        receipt = line_engine.send(packet)
        assert receipt.status is DeliveryStatus.LINK_DOWN

    def test_reset_stats(self, line_engine):
        line_engine.send(make_packet("n0", "n3"))
        line_engine.reset_stats()
        assert line_engine.receipts == []
        assert line_engine.delivery_rate() == 0.0
