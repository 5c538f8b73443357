#!/usr/bin/env python3
"""Who controls the route? The §V-A-4 control-point tussle, end to end.

Builds a hierarchical AS topology, converges BGP under Gao-Rexford
policy, then gives the user source routing — first without payment (it
fails, as in today's Internet), then with payment (it works, and the
transit providers earn revenue). Finally routes around both with an
overlay.

Run:  python examples/routing_tussle.py
"""

import random

from tussle.netsim.topology import random_as_graph
from tussle.routing import (
    OverlayNetwork,
    PathVectorRouting,
    SourceRoutingSystem,
    TransitTerms,
)


def main():
    network = random_as_graph(n_tier1=3, n_tier2=6, n_tier3=12,
                              rng=random.Random(5))
    stubs = [a.asn for a in network.ases if a.tier == 3]
    src, dst = stubs[0], stubs[5]
    print(f"Topology: {len(network.ases)} ASes; traffic AS{src} -> AS{dst}\n")

    # --- Provider control: BGP.
    bgp = PathVectorRouting(network)
    iterations = bgp.converge()
    path = bgp.as_path(src, dst)
    print(f"[BGP] converged in {iterations} iterations")
    print(f"[BGP] the ONE provider-selected path: {path}")

    # --- User control without payment: refused.
    unpaid = SourceRoutingSystem(network, payment_enabled=False)
    for autonomous_system in network.ases:
        unpaid.set_terms(autonomous_system.asn,
                         TransitTerms(accepts_source_routes=False, price=1.0))
    attempt = unpaid.best_affordable_route(src, dst, budget=100.0)
    print(f"\n[source routing, no payment] best attempt: "
          f"{'succeeded' if attempt else 'ALL REFUSED'}")
    print("  (the paper: 'ISPs do not receive any benefit when they carry "
          "traffic directed by a source route. Why should they be "
          "enthusiastic about this?')")

    # --- User control with payment: works, value flows.
    paid = SourceRoutingSystem(network, payment_enabled=True)
    for autonomous_system in network.ases:
        paid.set_terms(autonomous_system.asn,
                       TransitTerms(accepts_source_routes=False, price=1.0))
    candidates = paid.candidate_routes(src, dst)
    print(f"\n[source routing + payment] {len(candidates)} valley-free "
          f"candidate paths discovered")
    attempt = paid.best_affordable_route(src, dst, budget=100.0)
    print(f"  chosen path: {attempt.path} at price {attempt.total_price:.1f}")
    print(f"  route attested (user verified the path taken): {attempt.verified}")
    print(f"  transit revenue by AS: "
          f"{ {f'AS{a}': v for a, v in sorted(paid.revenue.items())} }")

    # --- The workaround: overlays.
    overlay = OverlayNetwork(bgp, members=stubs[:6])
    choices = overlay.path_choice_count(src, dst)
    distortion = overlay.uncompensated_transit(src, dst)
    print(f"\n[overlay] distinct underlay paths available: {choices}")
    print(f"[overlay] uncompensated transit hops created: "
          f"{sum(distortion.values())} across {len(distortion)} ASes")


if __name__ == "__main__":
    main()
