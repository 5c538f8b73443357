"""T02 — Blame routing on a *derived* dual-homed workload (§VI-A).

R01 established blame routing — operator for faults inside the
provider, end user at the edge — on a hand-drawn 7-node network.  T02
derives the same workload from a generated tiered internet instead: it
picks a multihomed stub on a :func:`tussle.topogen.generate_internet`
graph, reads its two provider-level paths out of the converged
valley-free RIB, and lowers them to a node-level network (one router
chain per AS path, chains node-disjoint by construction).  The blame
claims then re-run unchanged: if they only held on R01's hand-picked
geometry, this is where that would show.  Both tables are R01's
(:func:`~tussle.experiments.r01_fault_blame.fault_table` and
:func:`~tussle.experiments.r01_fault_blame.chaos_table`), built over the
derived network instead of the hand-drawn one.

The standby chain is padded one hop longer than the primary whenever
the two AS paths tie, so shortest-path forwarding deterministically
prefers the primary — same trick R01's hand-built net used (3-hop
primary, 4-hop standby).
"""

from __future__ import annotations

from typing import Tuple

from ..netsim.faults import Audience
from ..netsim.topology import Network, Relationship
from ..routing import PathVectorRouting
from ..topogen import TopogenConfig, generate_internet
from .common import ExperimentResult, Table
from .r01_fault_blame import chaos_table, fault_table

__all__ = ["run_t02"]


def _pick_user(network: Network) -> int:
    """Lowest-ASN multihomed stub; single-homed graphs get a second
    provider grafted on (deterministically) so the workload always
    exists."""
    stubs = sorted(a.asn for a in network.ases if a.tier == 3)
    for asn in stubs:
        if len(network.providers_of(asn)) >= 2:
            return asn
    user = stubs[0]
    region = network.autonomous_system(user).metadata["region"]
    pool = sorted(a.asn for a in network.ases
                  if a.tier == 2 and a.metadata["region"] == region
                  and a.asn not in network.providers_of(user))
    network.add_as_relationship(user, pool[0],
                                Relationship.CUSTOMER_PROVIDER)
    return user


def _derive_paths(network: Network,
                  user: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """(primary AS path, standby AS path, destination) for the user.

    Primary is the user's selected route to the lowest-ASN stub in
    another region; standby goes through the user's other provider.
    Stubs carry no transit, so the standby tail can never loop back
    through the user.
    """
    bgp = PathVectorRouting(network)
    bgp.converge_fast()
    region = network.autonomous_system(user).metadata["region"]
    stubs = sorted(a.asn for a in network.ases
                   if a.tier == 3 and a.asn != user)
    remote = [a for a in stubs
              if network.autonomous_system(a).metadata["region"] != region]
    dst = (remote or stubs)[0]
    primary = bgp.as_path(user, dst)
    standby_provider = min(p for p in network.providers_of(user)
                           if p != primary[1])
    standby = (user,) + bgp.as_path(standby_provider, dst)
    return primary, standby, dst


def _lower_to_nodes(primary: Tuple[int, ...],
                    standby: Tuple[int, ...]) -> Network:
    """One router per interior AS of each path, chains node-disjoint.

    An AS appearing on both paths becomes two distinct routers (one per
    chain), mirroring how a provider dedicates different ports to
    different customers' paths.
    """
    n_standby = len(standby) - 2
    if len(standby) <= len(primary):
        n_standby = len(primary) - 1  # pad: standby must lose ties
    net = Network()
    net.add_node("u")
    net.add_node("dst")
    for prefix, count, path in (("p", len(primary) - 2, primary),
                                ("s", n_standby, standby)):
        previous = "u"
        for i in range(count):
            interior = path[1:-1]
            asn = int(interior[min(i, len(interior) - 1)])
            name = f"{prefix}{i}"
            net.add_node(name, asn=asn)
            net.add_link(previous, name)
            previous = name
        net.add_link(previous, "dst")
    return net


def _provider_nodes(net: Network) -> Tuple[str, ...]:
    return tuple(sorted(n.name for n in net.nodes
                        if n.name not in ("u", "dst")))


def run_t02(n_ases: int = 60, probes: int = 12,
            seed: int = 0) -> ExperimentResult:
    config = TopogenConfig(n_ases=n_ases, router_detail="none")
    network = generate_internet(config, seed=seed)
    user = _pick_user(network)
    primary, standby, dst = _derive_paths(network, user)
    workload = _lower_to_nodes(primary, standby)
    providers = _provider_nodes(workload)
    primary_names = ["u"] + [f"p{i}" for i in range(len(primary) - 2)] + ["dst"]
    primary_links = tuple(sorted(
        tuple(sorted(pair)) for pair in zip(primary_names, primary_names[1:])))

    def build() -> Network:
        return _lower_to_nodes(primary, standby)

    derivation = Table(
        "T02: workload derived from the generated internet",
        ["role", "provider_asn", "as_path", "router_hops"],
    )
    derivation.add_row(role="primary", provider_asn=primary[1],
                       as_path="-".join(map(str, primary)),
                       router_hops=len(primary_names) - 1)
    derivation.add_row(role="standby", provider_asn=standby[1],
                       as_path="-".join(map(str, standby)),
                       router_hops=len(workload.links) - len(primary_names) + 1)

    structural = fault_table("T02", build, providers, primary_links)
    chaos = chaos_table("T02", build, providers, seed, probes)

    result = ExperimentResult(
        experiment_id="T02",
        title="Blame routing on a topology-derived dual-homed workload",
        paper_claim=("§VI-A: the right person to tell depends on where the "
                     "fault sits — operator inside the provider, end user "
                     "(whose remedy is choice) at the edge — and that must "
                     "hold on real multihoming geometry, not just a "
                     "hand-drawn example."),
        tables=[derivation, structural, chaos],
    )

    rows = structural.rows
    primary_rows = [r for r in rows if r["on_primary"]]
    access = [r for r in primary_rows
              if "u" in r["link"].split("-")]
    provider_internal = [r for r in primary_rows if r not in access]
    off_path = [r for r in rows if not r["on_primary"]]

    result.add_check(
        "the generated internet yields a genuinely dual-homed workload",
        primary[1] != standby[1] and len(standby) >= len(primary),
        detail=(f"user AS {user} -> dst AS {dst} via providers "
                f"{primary[1]} (primary) and {standby[1]} (standby)"),
    )
    result.add_check(
        "faults inside the providers' chains are reported to the operator, "
        "actionably",
        bool(provider_internal)
        and all(r["audience"] == Audience.OPERATOR.value and r["actionable"]
                for r in provider_internal),
        detail=f"{len(provider_internal)} provider-internal faults",
    )
    result.add_check(
        "a fault at the user's access link is reported to the end user",
        bool(access)
        and all(r["audience"] == Audience.END_USER.value and r["actionable"]
                for r in access),
        detail=f"{len(access)} access-link faults",
    )
    result.add_check(
        "re-convergence recovers every primary-path fault via the standby "
        "provider",
        all(r["recovered"] for r in primary_rows),
        detail=f"{len(primary_rows)} primary-path faults re-converged",
    )
    result.add_check(
        "off-path faults do not disturb delivery",
        all(r["delivered"] for r in off_path),
        detail=f"{len(off_path)} standby-chain faults",
    )
    result.add_check(
        "under seeded chaos, blame stays consistent: operator iff the fault "
        "sits inside a provider chain",
        all(r["consistent"] for r in chaos.rows),
        detail=(f"{sum(1 for r in chaos.rows if not r['delivered'])} faulty "
                f"probes of {len(chaos.rows)}"),
    )
    return result
