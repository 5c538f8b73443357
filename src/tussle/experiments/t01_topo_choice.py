"""T01 — E04's path-choice claim at internet scale (§V-A-4).

E04 established on an 21-AS toy graph that provider-controlled routing
gives the user exactly one path while overlays restore choice at the
price of uncompensated transit.  T01 re-runs that claim where it was
actually made — on an internet: a generated tiered topology
(:func:`tussle.topogen.generate_internet`, 10^3 ASes by default) with a
tier-1 clique, regional transit and multihomed stubs, converged through
the valley-free fast path
(:meth:`~tussle.routing.pathvector.PathVectorRouting.converge_fast`).

Beyond re-checking E04's shape, scale adds claims the toy graph could
not express:

* every selected path is **valley-free** — the business structure, not
  shortest-path geometry, shapes routes;
* stub ASes carry **zero transit**: Gao-Rexford export rules mean an AS
  with no customers never forwards third-party traffic, however densely
  it is connected;
* transit concentrates in the provider core (tiers 1-2) — the
  provider-interest outcome the paper says BGP's economics drove.
"""

from __future__ import annotations

from ..routing import PathVectorRouting, is_valley_free, overlay_regime
from ..topogen import TopogenConfig, generate_internet
from ..topogen.presets import stub_pairs
from .common import ExperimentResult, Table

__all__ = ["run_t01"]


def run_t01(n_ases: int = 1000, n_pairs: int = 20,
            seed: int = 0) -> ExperimentResult:
    config = TopogenConfig(n_ases=n_ases, router_detail="none")
    network = generate_internet(config, seed=seed)
    bgp = PathVectorRouting(network)
    levels = bgp.converge_fast()
    pairs = stub_pairs(network, n_pairs)

    # --- Topology shape (provenance for the claims below).
    shape = Table(
        "T01: generated tiered internet",
        ["tier", "ases", "mean_providers", "mean_peers"],
    )
    for tier in (1, 2, 3):
        members = [a.asn for a in network.ases if a.tier == tier]
        shape.add_row(
            tier=tier, ases=len(members),
            mean_providers=sum(len(network.providers_of(a)) for a in members)
            / len(members),
            mean_peers=sum(len(network.peers_of(a)) for a in members)
            / len(members),
        )

    # --- E04's regimes, at scale: BGP vs overlay on stub-to-stub pairs.
    regimes = Table(
        "T01: path choice per regime on stub-to-stub traffic",
        ["regime", "control", "mean_paths_per_pair", "success_rate",
         "uncompensated_transit"],
    )
    bgp_success = sum(1 for s, d in pairs if bgp.reachable(s, d))
    regimes.add_row(
        regime="bgp", control="provider",
        mean_paths_per_pair=bgp_success / len(pairs),
        success_rate=bgp_success / len(pairs),
        uncompensated_transit=0,
    )
    overlay_choices, overlay_success, uncompensated = overlay_regime(
        bgp, pairs)
    regimes.add_row(
        regime="overlay", control="user",
        mean_paths_per_pair=overlay_choices / len(pairs),
        success_rate=overlay_success / len(pairs),
        uncompensated_transit=uncompensated,
    )

    # --- Valley-free structure of the selected routes.
    pair_paths = [bgp.as_path(s, d) for s, d in pairs]
    violations = sum(1 for p in pair_paths if not is_valley_free(network, p))
    transit = {a.asn: bgp.transit_load(a.asn) for a in network.ases}
    stub_transit = max(transit[a.asn]
                       for a in network.ases if a.tier == 3)
    core_transit = max(transit[a.asn]
                       for a in network.ases if a.tier in (1, 2))
    total_transit = sum(transit.values())
    core_share = (sum(transit[a.asn]
                      for a in network.ases if a.tier in (1, 2))
                  / total_transit if total_transit else 0.0)
    structure = Table(
        "T01: valley-free structure of selected routes",
        ["metric", "value"],
    )
    structure.add_row(metric="convergence_levels", value=levels)
    structure.add_row(metric="pair_paths_checked", value=len(pair_paths))
    structure.add_row(metric="valley_violations", value=violations)
    structure.add_row(metric="max_stub_transit", value=stub_transit)
    structure.add_row(metric="max_core_transit", value=core_transit)
    structure.add_row(metric="core_transit_share", value=core_share)

    result = ExperimentResult(
        experiment_id="T01",
        title="Provider routing vs user choice on a generated internet",
        paper_claim=("§V-A-4 at scale: BGP still gives the user one "
                     "provider-chosen, valley-free path per destination; "
                     "overlays still restore choice by riding uncompensated "
                     "transit; and the export economics keep all transit in "
                     "the provider core."),
        tables=[shape, regimes, structure],
    )

    rows = {row["regime"]: row for row in regimes.rows}
    result.add_check(
        "BGP reaches every stub pair with exactly one path",
        rows["bgp"]["success_rate"] == 1.0
        and rows["bgp"]["mean_paths_per_pair"] == 1.0,
        detail=f"{len(pairs)} stub pairs on {n_ases} ASes",
    )
    result.add_check(
        "every provider-selected path is valley-free",
        violations == 0,
        detail=f"{len(pair_paths)} selected paths checked",
    )
    result.add_check(
        "stub ASes carry zero transit (no customers, nothing to sell)",
        stub_transit == 0,
        detail=f"max stub transit {stub_transit}, max core {core_transit}",
    )
    result.add_check(
        "all transit rides the provider core (tiers 1-2)",
        core_share == 1.0 and core_transit > 0,
        detail=f"core share {core_share:.3f}",
    )
    result.add_check(
        "overlays restore user path choice without provider cooperation",
        rows["overlay"]["mean_paths_per_pair"]
        > rows["bgp"]["mean_paths_per_pair"],
        detail=(f"overlay {rows['overlay']['mean_paths_per_pair']:.1f} "
                f"paths/pair vs bgp 1"),
    )
    result.add_check(
        "and still create uncompensated transit at scale",
        rows["overlay"]["uncompensated_transit"] > 0,
        detail=(f"{rows['overlay']['uncompensated_transit']} uncompensated "
                f"transit hops"),
    )
    return result
