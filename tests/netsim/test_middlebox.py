"""Tests for middleboxes: firewalls, redirectors and wiretaps."""

import pytest

from tussle.netsim.middlebox import (
    Action,
    BlanketFirewall,
    PortFilterFirewall,
    Redirector,
    TransparencyLedger,
    Wiretap,
)
from tussle.netsim.packets import make_packet


class TestPortFilterFirewall:
    def test_blocks_named_application(self):
        fw = PortFilterFirewall("fw", blocked_applications={"p2p"})
        verdict = fw.process(make_packet("a", "b", application="p2p"))
        assert verdict.action is Action.DROP

    def test_forwards_other_traffic(self):
        fw = PortFilterFirewall("fw", blocked_applications={"p2p"})
        verdict = fw.process(make_packet("a", "b", application="http"))
        assert verdict.action is Action.FORWARD

    def test_tunnel_evades_application_filter(self):
        fw = PortFilterFirewall("fw", blocked_applications={"p2p"})
        tunnelled = make_packet("a", "b", application="p2p").tunnel_to(
            "gw", application="https")
        assert fw.process(tunnelled).action is Action.FORWARD

    def test_blocked_port_beats_tunnel_application(self):
        fw = PortFilterFirewall("fw", blocked_ports={443})
        tunnelled = make_packet("a", "b", application="p2p").tunnel_to(
            "gw", application="https")
        assert fw.process(tunnelled).action is Action.DROP

    def test_interference_rate(self):
        fw = PortFilterFirewall("fw", blocked_applications={"p2p"})
        fw.process(make_packet("a", "b", application="p2p"))
        fw.process(make_packet("a", "b", application="http"))
        assert fw.interference_rate() == pytest.approx(0.5)

    def test_disclosure_flag_respected(self):
        silent = PortFilterFirewall("fw", blocked_applications={"p2p"},
                                    discloses=False)
        verdict = silent.process(make_packet("a", "b", application="p2p"))
        assert not verdict.disclosed


class TestBlanketFirewall:
    def test_allows_listed_applications(self):
        fw = BlanketFirewall("fw", allowed_applications={"http"})
        assert fw.process(make_packet("a", "b", application="http")).action \
            is Action.FORWARD

    def test_drops_unknown_applications(self):
        fw = BlanketFirewall("fw", allowed_applications={"http"})
        assert fw.process(make_packet("a", "b", application="new-thing")).action \
            is Action.DROP

    def test_drops_unclassifiable_encrypted_traffic(self):
        fw = BlanketFirewall("fw", allowed_applications={"http"})
        packet = make_packet("a", "b", application="new-thing", encrypted=True)
        assert fw.process(packet).action is Action.DROP


class TestRedirector:
    def test_redirects_matching_port(self):
        redirect = Redirector("isp-box", port=25, new_destination="isp-smtp")
        verdict = redirect.process(make_packet("user", "my-smtp", application="smtp"))
        assert verdict.action is Action.REDIRECT
        assert verdict.new_destination == "isp-smtp"

    def test_leaves_other_ports_alone(self):
        redirect = Redirector("isp-box", port=25, new_destination="isp-smtp")
        verdict = redirect.process(make_packet("user", "site", application="http"))
        assert verdict.action is Action.FORWARD

    def test_no_redirect_loop_to_same_destination(self):
        redirect = Redirector("isp-box", port=25, new_destination="isp-smtp")
        verdict = redirect.process(make_packet("user", "isp-smtp", application="smtp"))
        assert verdict.action is Action.FORWARD


class TestWiretap:
    def test_sees_plaintext_content(self):
        tap = Wiretap("tap")
        tap.process(make_packet("a", "b", application="http"))
        assert tap.content_visibility_rate() == 1.0
        assert tap.observations[0]["application"] == "http"

    def test_encryption_blinds_content(self):
        tap = Wiretap("tap")
        tap.process(make_packet("a", "b", encrypted=True))
        assert tap.content_visibility_rate() == 0.0

    def test_always_forwards(self):
        tap = Wiretap("tap")
        assert tap.process(make_packet("a", "b")).action is Action.FORWARD

    def test_empty_tap_rate(self):
        assert Wiretap("tap").content_visibility_rate() == 0.0


class TestTransparencyLedger:
    def test_forward_actions_not_recorded(self):
        ledger = TransparencyLedger()
        ledger.record("fw", Action.FORWARD, disclosed=True)
        assert ledger.disclosure_rate() == 1.0
        assert not ledger.records

    def test_disclosure_rate_mixes(self):
        ledger = TransparencyLedger()
        ledger.record("fw1", Action.DROP, disclosed=True)
        ledger.record("fw2", Action.DROP, disclosed=False)
        assert ledger.disclosure_rate() == pytest.approx(0.5)
        assert ledger.silent_interferers() == {"fw2"}
