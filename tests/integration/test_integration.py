"""Integration tests: scenarios that cross subpackage boundaries."""

import random

from tussle.core import (
    Mechanism,
    Stakeholder,
    StakeholderKind,
    TussleSimulator,
    TussleSpace,
)
from tussle.netsim import (
    ForwardingEngine,
    Network,
    NodeKind,
    PortFilterFirewall,
    make_packet,
)
from tussle.netsim.topology import random_as_graph
from tussle.routing import PathVectorRouting, SourceRoutingSystem
from tussle.trust import TrustAwareFirewall, TrustGraph


class TestTrustFirewallOnPath:
    def test_trust_aware_beats_port_filter_for_new_apps(self):
        def build_engine():
            net = Network()
            net.add_node("me")
            net.add_node("gw", kind=NodeKind.MIDDLEBOX)
            net.add_node("friend")
            net.add_node("attacker")
            net.add_link("friend", "gw")
            net.add_link("attacker", "gw")
            net.add_link("gw", "me")
            engine = ForwardingEngine(net)
            engine.install_shortest_path_tables()
            return engine

        trust = TrustGraph()
        trust.set_trust("me", "friend", 0.9)

        trusted = build_engine()
        trusted.attach_middlebox("gw", TrustAwareFirewall(
            "tfw", protected="me", trust_graph=trust))
        port_filtered = build_engine()
        port_filtered.attach_middlebox("gw", PortFilterFirewall(
            "pfw", blocked_applications={"new-app"}))

        new_app = lambda: make_packet("friend", "me", application="new-app")
        attack = lambda: make_packet("attacker", "me", application="http")

        assert trusted.send(new_app()).delivered
        assert not trusted.send(attack()).delivered
        assert not port_filtered.send(new_app()).delivered
        assert port_filtered.send(attack()).delivered


class TestDesignComparisonEndToEnd:
    def _run(self, knob_range):
        space = TussleSpace("arena", initial_state={"x": 0.5})
        space.add_mechanism(Mechanism(name="knob", variable="x",
                                      allowed_range=knob_range))
        users = Stakeholder("users", StakeholderKind.USER,
                            workaround_cost=0.05)
        users.add_interest("x", target=1.0)
        isps = Stakeholder("isps", StakeholderKind.COMMERCIAL_ISP,
                           workaround_cost=0.05)
        isps.add_interest("x", target=0.0)
        space.add_stakeholder(users)
        space.add_stakeholder(isps)
        return TussleSimulator(space).run(40), space

    def test_flexible_design_wins_the_comparison(self):
        """The paper's order: survival first, then integrity, then welfare."""
        rigid_outcome, _ = self._run((0.5, 0.5))
        flexible_outcome, _ = self._run((0.0, 1.0))

        def score(outcome):
            return (outcome.survived, outcome.final_integrity,
                    outcome.final_welfare)

        assert score(flexible_outcome) > score(rigid_outcome)


class TestBgpAndSourceRoutingAgree:
    def test_bgp_path_is_among_valley_free_candidates(self):
        net = random_as_graph(n_tier1=2, n_tier2=3, n_tier3=4,
                              rng=random.Random(2))
        bgp = PathVectorRouting(net)
        bgp.converge()
        system = SourceRoutingSystem(net, payment_enabled=True)
        stubs = [a.asn for a in net.ases if a.tier == 3]
        src, dst = stubs[0], stubs[1]
        bgp_path = bgp.as_path(src, dst)
        if bgp_path is not None:
            candidates = {r.path for r in system.candidate_routes(src, dst)}
            assert bgp_path in candidates
