#!/usr/bin/env python3
"""The trust tussle of §V-B: bad guys and firewalls.

Runs a threat campaign against three gateway configurations and shows
the innovation cost of blanket filtering versus trust mediation.

Run:  python examples/trust_and_firewalls.py
"""

from tussle.netsim import (
    BlanketFirewall,
    ForwardingEngine,
    Network,
    NodeKind,
)
from tussle.trust import (
    AttackKind,
    Attacker,
    ThreatCampaign,
    TrustAwareFirewall,
    TrustGraph,
)


def build_engine():
    net = Network()
    net.add_node("home", kind=NodeKind.HOST)
    net.add_node("gw", kind=NodeKind.MIDDLEBOX)
    net.add_node("internet", kind=NodeKind.ROUTER)
    for name in ("friend", "startup", "badguy"):
        net.add_node(name)
        net.add_link(name, "internet")
    net.add_link("internet", "gw")
    net.add_link("gw", "home")
    engine = ForwardingEngine(net)
    engine.install_shortest_path_tables()
    return engine


def campaign(engine):
    return ThreatCampaign(
        engine,
        victim="home",
        attackers=[Attacker("badguy", AttackKind.DOS_FLOOD, seed=1)],
        legit_senders=[("friend", "http")],
        new_app_senders=[("startup", "holo-chat")],  # the unforeseen app
    )


def firewalls_under_attack():
    print("=== Firewall designs under attack ===\n")
    print(f"{'deployment':14s} {'attacks in':>10s} {'http in':>8s} "
          f"{'new app in':>10s}")

    engine = build_engine()
    mix = campaign(engine).run(10)
    print(f"{'none':14s} {mix.attack_admission_rate:>10.0%} "
          f"{mix.legit_success_rate:>8.0%} {mix.new_app_success_rate:>10.0%}")

    engine = build_engine()
    engine.attach_middlebox("gw", BlanketFirewall(
        "blanket", allowed_applications={"http", "smtp"}))
    mix = campaign(engine).run(10)
    print(f"{'blanket':14s} {mix.attack_admission_rate:>10.0%} "
          f"{mix.legit_success_rate:>8.0%} {mix.new_app_success_rate:>10.0%}")

    trust = TrustGraph()
    trust.set_trust("home", "friend", 0.9)
    trust.set_trust("home", "startup", 0.7)  # the user CHOSE to trust them
    engine = build_engine()
    engine.attach_middlebox("gw", TrustAwareFirewall(
        "trust-fw", protected="home", trust_graph=trust))
    mix = campaign(engine).run(10)
    print(f"{'trust-aware':14s} {mix.attack_admission_rate:>10.0%} "
          f"{mix.legit_success_rate:>8.0%} {mix.new_app_success_rate:>10.0%}")

    print("\nThe blanket firewall protects but forbids the unforeseen; the "
          "trust-aware firewall\nconstrains 'based on who is communicating' "
          "and lets trusted innovation through.")


if __name__ == "__main__":
    firewalls_under_attack()
