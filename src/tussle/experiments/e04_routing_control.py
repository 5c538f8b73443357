"""E04 — Who controls the route: provider vs user (§V-A-4).

Paper claims:

* provider control (BGP) won historically; under it the user has exactly
  one path per destination and no say in it;
* "source routes do not work effectively today" because transit ISPs get
  no benefit from carrying them — without payment, user routing fails;
* "the design for provider-level source routing must incorporate a
  recognition of the need for payment" — with payment, user choice works
  and providers earn revenue;
* overlays give users path choice without provider cooperation, but
  create "economic distortion" (uncompensated transit).

Workload: a seeded hierarchical AS graph. We compare four regimes on the
same stub-to-stub traffic: BGP only; source routing without payment;
source routing with payment; overlay over BGP.
"""

from __future__ import annotations

from typing import Dict

from ..routing import (
    PathVectorRouting,
    SourceRoutingSystem,
    TransitTerms,
    overlay_regime,
)
from ..topogen.presets import e04_reference_graph, stub_pairs
from .common import ExperimentResult, Table

__all__ = ["run_e04"]


def _source_routing(network, pairs, payment_enabled: bool) -> Dict[str, float]:
    """User source routing over ``pairs`` when every AS refuses unpaid
    source routes at price 1.0: mean usable paths per pair, the share of
    pairs with an affordable route, and the transit revenue collected."""
    system = SourceRoutingSystem(network, payment_enabled=payment_enabled)
    for autonomous_system in network.ases:
        system.set_terms(autonomous_system.asn,
                         TransitTerms(accepts_source_routes=False, price=1.0))
    success = 0
    diversity = 0
    for src, dst in pairs:
        if system.best_affordable_route(src, dst, budget=100.0) is not None:
            success += 1
        diversity += system.path_diversity(src, dst, budget=100.0)
    return {
        "mean_paths_per_pair": diversity / len(pairs),
        "success_rate": success / len(pairs),
        "transit_revenue": sum(system.revenue.values()),
    }


def run_e04(n_pairs: int = 8, seed: int = 5) -> ExperimentResult:
    network = e04_reference_graph(seed)
    bgp = PathVectorRouting(network)
    bgp.converge()
    pairs = stub_pairs(network, n_pairs)

    table = Table(
        "E04: routing control regime vs user path choice and revenue",
        ["regime", "control", "mean_paths_per_pair", "success_rate",
         "transit_revenue", "uncompensated_transit"],
    )

    # --- Regime 1: BGP (provider control): one selected path per pair.
    bgp_paths = [1 if bgp.reachable(s, d) else 0 for s, d in pairs]
    table.add_row(
        regime="bgp", control="provider",
        mean_paths_per_pair=sum(bgp_paths) / len(pairs),
        success_rate=sum(bgp_paths) / len(pairs),
        transit_revenue=0.0,
        uncompensated_transit=0,
    )

    # --- Regimes 2 and 3: source routing without payment (today's
    # reality) and with it.
    for regime, payment_enabled in (("source-routing/no-payment", False),
                                    ("source-routing/payment", True)):
        table.add_row(regime=regime, control="user",
                      **_source_routing(network, pairs, payment_enabled),
                      uncompensated_transit=0)

    # --- Regime 4: overlay over BGP (the workaround).
    overlay_choices, overlay_success, uncompensated = overlay_regime(
        bgp, pairs)
    table.add_row(
        regime="overlay", control="user",
        mean_paths_per_pair=overlay_choices / len(pairs),
        success_rate=overlay_success / len(pairs),
        transit_revenue=0.0,
        uncompensated_transit=uncompensated,
    )

    result = ExperimentResult(
        experiment_id="E04",
        title="Provider-controlled vs user-controlled routing",
        paper_claim=("BGP gives the user one path and no choice; unpaid source "
                     "routes are refused; payment makes user routing work and "
                     "compensates providers; overlays give choice but ride "
                     "uncompensated transit."),
        tables=[table],
    )

    rows = {row["regime"]: row for row in table.rows}
    result.add_check(
        "unpaid source routing fails where BGP succeeds",
        rows["source-routing/no-payment"]["success_rate"]
        < rows["bgp"]["success_rate"],
        detail=(f"success {rows['source-routing/no-payment']['success_rate']:.2f} "
                f"vs bgp {rows['bgp']['success_rate']:.2f}"),
    )
    result.add_check(
        "payment unlocks user routing (success and diversity beat BGP)",
        rows["source-routing/payment"]["success_rate"]
        >= rows["bgp"]["success_rate"]
        and rows["source-routing/payment"]["mean_paths_per_pair"]
        > rows["bgp"]["mean_paths_per_pair"],
        detail=(f"paid diversity "
                f"{rows['source-routing/payment']['mean_paths_per_pair']:.1f} "
                f"paths/pair vs bgp 1"),
    )
    result.add_check(
        "value flows to transit providers only under the payment design",
        rows["source-routing/payment"]["transit_revenue"] > 0
        and rows["source-routing/no-payment"]["transit_revenue"] == 0,
        detail=(f"revenue {rows['source-routing/payment']['transit_revenue']:.1f} "
                f"with payment"),
    )
    result.add_check(
        "overlays give the user extra paths without provider cooperation",
        rows["overlay"]["mean_paths_per_pair"]
        > rows["bgp"]["mean_paths_per_pair"],
        detail=f"overlay {rows['overlay']['mean_paths_per_pair']:.1f} paths/pair",
    )
    result.add_check(
        "but overlays create uncompensated transit (economic distortion)",
        rows["overlay"]["uncompensated_transit"] > 0,
        detail=f"{rows['overlay']['uncompensated_transit']} uncompensated transit hops",
    )
    return result
