"""Tests for audience-targeted fault reporting."""

import pytest

from tussle.netsim.faults import Audience, FaultReporter
from tussle.netsim.forwarding import ForwardingEngine
from tussle.netsim.middlebox import PortFilterFirewall
from tussle.netsim.packets import make_packet
from tussle.netsim.topology import line_topology


@pytest.fixture
def engine():
    e = ForwardingEngine(line_topology(4))
    e.install_shortest_path_tables()
    return e


class TestFaultReporter:
    def test_delivered_report_not_actionable(self, engine):
        receipt = engine.send(make_packet("n0", "n3"))
        report = FaultReporter().report(receipt, Audience.END_USER)
        assert report.summary == "delivered"
        assert not report.actionable

    def test_disclosed_block_is_actionable_for_user(self, engine):
        engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"p2p"}))
        receipt = engine.send(make_packet("n0", "n3", application="p2p"))
        report = FaultReporter().report(receipt, Audience.END_USER)
        assert report.actionable
        assert "different provider" in report.summary

    def test_silent_block_not_actionable_for_user(self, engine):
        engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"p2p"},
                                     discloses=False))
        receipt = engine.send(make_packet("n0", "n3", application="p2p"))
        report = FaultReporter().report(receipt, Audience.END_USER)
        assert not report.actionable
        assert "undisclosed" in report.summary

    def test_operator_report_localizes_link_failure(self, engine):
        engine.network.fail_link("n1", "n2")
        receipt = engine.send(make_packet("n0", "n3"))
        report = FaultReporter().report(receipt, Audience.OPERATOR)
        assert report.actionable
        assert report.location == "n1"
        assert "link" in report.summary

    def test_user_report_for_link_failure_mentions_unreachable(self, engine):
        engine.network.fail_link("n1", "n2")
        receipt = engine.send(make_packet("n0", "n3"))
        report = FaultReporter().report(receipt, Audience.END_USER)
        assert "unreachable" in report.summary

    def test_source_route_refusal_report(self, engine):
        engine.honor_source_routes = False
        packet = make_packet("n0", "n3", source_route=["n0", "n1", "n2", "n3"])
        receipt = engine.send(packet)
        report = FaultReporter().report(receipt, Audience.END_USER)
        assert report.actionable
        assert "refuses" in report.summary


class TestBlameRouting:
    """FaultReporter.route: address the actor who can act (§VI-A)."""

    def test_delivered_goes_to_end_user_unactionable(self, engine):
        receipt = engine.send(make_packet("n0", "n3"))
        report = FaultReporter().route(receipt, provider_nodes=["n1", "n2"])
        assert report.audience is Audience.END_USER
        assert not report.actionable

    def test_provider_internal_fault_addresses_operator(self, engine):
        engine.network.fail_link("n1", "n2")
        receipt = engine.send(make_packet("n0", "n3"))
        report = FaultReporter().route(receipt, provider_nodes=["n1", "n2"])
        assert report.audience is Audience.OPERATOR
        assert report.actionable
        assert report.location == "n1"

    def test_fault_outside_provider_addresses_end_user(self, engine):
        engine.network.fail_link("n1", "n2")
        receipt = engine.send(make_packet("n0", "n3"))
        # Same fault, but n1 belongs to no declared provider: the user's
        # remedy is to choose differently.
        report = FaultReporter().route(receipt, provider_nodes=["n2"])
        assert report.audience is Audience.END_USER
        assert report.actionable

    def test_middlebox_inside_provider_addresses_operator(self, engine):
        engine.attach_middlebox(
            "n1", PortFilterFirewall("fw", blocked_applications={"p2p"}))
        receipt = engine.send(make_packet("n0", "n3", application="p2p"))
        report = FaultReporter().route(receipt, provider_nodes=["n1", "n2"])
        assert report.audience is Audience.OPERATOR
        assert report.actionable

