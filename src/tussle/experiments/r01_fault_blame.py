"""R01 — Fault reporting routes blame to the actor who can act (§VI-A).

Paper claims:

* "failures of transparency will occur ... design what happens then":
  when delivery fails, the system should say *why* and *to whom* —
  "the hard challenge is not so much to find the fault but to report
  the problem to the right person in the right language";
* the right person depends on where the fault sits: a fault inside the
  provider's network is the **operator's** to fix, while a fault at the
  user's edge leaves the user with the remedy the paper keeps
  returning to — *choice* of another path or provider.

Workload: a multihomed user ``u`` reaching ``dst`` through two
providers — A (``aE``–``aC``, the shorter, primary path) and B
(``bE``–``bX``–``bC``, the standby).  A structural table fails every
link in turn (stale tables, so the fault is observed rather than routed
around) and routes the resulting report with
:meth:`~tussle.netsim.faults.FaultReporter.route`; re-convergence via
:class:`~tussle.routing.RouteRecovery` then measures whether
multihoming actually delivers the user's remedy.  A second table drives
a seeded :class:`~tussle.resil.ChaosSchedule` against the same network
and checks that blame routing stays consistent under random faults.
"""

from __future__ import annotations

from typing import Callable, Collection, Tuple

from ..netsim.faults import Audience, FaultReporter
from ..netsim.forwarding import ForwardingEngine
from ..netsim.packets import make_packet
from ..netsim.topology import Network
from ..resil import ChaosInjector, ChaosSchedule
from ..routing import RouteRecovery
from ..topogen.presets import (
    MULTIHOMED_PRIMARY_LINKS as _PRIMARY_LINKS,
    MULTIHOMED_PROVIDER_NODES as _PROVIDER_NODES,
    multihomed_user_network as _build_network,
)
from .common import ExperimentResult, Table

__all__ = ["run_r01", "fault_table", "chaos_table"]


def _engine(network: Network) -> ForwardingEngine:
    engine = ForwardingEngine(network)
    engine.install_shortest_path_tables()
    return engine


def fault_table(experiment_id: str, build: Callable[[], Network],
                providers: Tuple[str, ...],
                primary_links: Collection[Tuple[str, str]]) -> Table:
    """Fail every link of a fresh ``build()`` in turn, probe ``u`` ->
    ``dst`` and route the blame among ``providers``' nodes, then
    re-converge to see whether the user's remedy works."""
    reporter = FaultReporter()
    table = Table(
        f"{experiment_id}: single-link faults, blame routing, and recovery",
        ["link", "on_primary", "delivered", "audience", "actionable",
         "recovered"],
    )
    for link in sorted(build().links, key=lambda l: l.key()):
        engine = _engine(build())
        engine.network.fail_link(link.a, link.b)
        receipt = engine.send(make_packet("u", "dst"))
        audience = None
        actionable = None
        if not receipt.delivered:
            report = reporter.route(receipt, providers)
            audience = report.audience.value
            actionable = report.actionable
        recovered = RouteRecovery(engine).reconverge(1.0, probe=("u", "dst"))
        table.add_row(link="-".join(link.key()),
                      on_primary=link.key() in primary_links,
                      delivered=receipt.delivered, audience=audience,
                      actionable=actionable, recovered=recovered)
    return table


def chaos_table(experiment_id: str, build: Callable[[], Network],
                providers: Tuple[str, ...], seed: int, probes: int) -> Table:
    """Probe ``u`` -> ``dst`` under a seeded fault process; the blame is
    consistent when it names the operator exactly when the fault sits on
    a provider's node."""
    reporter = FaultReporter()
    schedule = ChaosSchedule(seed=seed, horizon=float(probes),
                             link_failure_rate=0.4, link_repair=(0.5, 2.0))
    engine = _engine(build())
    injector = ChaosInjector(engine, schedule.plan(engine.network))
    table = Table(
        f"{experiment_id}: seeded chaos probes",
        ["time", "delivered", "location", "audience", "consistent"],
    )
    for i in range(probes):
        now = i + 0.5
        injector.advance(now)
        receipt = engine.send(make_packet("u", "dst"))
        location = None
        audience = None
        consistent = True
        if not receipt.delivered:
            report = reporter.route(receipt, providers)
            location = report.location
            audience = report.audience.value
            consistent = (
                (audience == Audience.OPERATOR.value)
                == (location in providers)
                and report.actionable
            )
        table.add_row(time=now, delivered=receipt.delivered,
                      location=location, audience=audience,
                      consistent=consistent)
    return table


def run_r01(probes: int = 12, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="R01",
        title="Fault blame routes to the actor who can act",
        paper_claim=("§VI-A: report the problem to the right person in the "
                     "right language — the operator for faults inside the "
                     "provider, the user (whose remedy is choice) at the "
                     "edge."),
    )
    structural = fault_table("R01", _build_network, _PROVIDER_NODES,
                             _PRIMARY_LINKS)
    result.tables.append(structural)
    chaos = chaos_table("R01", _build_network, _PROVIDER_NODES, seed, probes)
    result.tables.append(chaos)

    rows = structural.rows
    primary = [r for r in rows if r["on_primary"]]
    provider_internal = [r for r in primary if r["link"] != "aE-u"]
    access = [r for r in primary if r["link"] == "aE-u"]
    off_path = [r for r in rows if not r["on_primary"]]

    result.add_check(
        "faults inside the provider's network are reported to the operator, "
        "actionably",
        all(r["audience"] == Audience.OPERATOR.value and r["actionable"]
            for r in provider_internal),
        f"{len(provider_internal)} provider-internal faults",
    )
    result.add_check(
        "a fault at the user's access link is reported to the end user, "
        "whose remedy is choice",
        all(r["audience"] == Audience.END_USER.value and r["actionable"]
            for r in access),
        f"{len(access)} access-link faults",
    )
    result.add_check(
        "re-convergence recovers every primary-path fault via the second "
        "provider",
        all(r["recovered"] for r in primary),
        f"{len(primary)} primary-path faults re-converged",
    )
    result.add_check(
        "off-path faults do not disturb delivery",
        all(r["delivered"] for r in off_path),
        f"{len(off_path)} standby-path faults",
    )
    result.add_check(
        "under seeded chaos, blame routing stays consistent: operator iff "
        "the fault sits in the provider's network",
        all(r["consistent"] for r in chaos.rows),
        f"{sum(1 for r in chaos.rows if not r['delivered'])} faulty probes "
        f"of {len(chaos.rows)}",
    )
    return result
