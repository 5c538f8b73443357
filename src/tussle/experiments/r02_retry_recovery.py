"""R02 — Retries ride out transient faults; persistent faults escalate.

Paper claims (§VI-A):

* "failures of transparency will occur — design what happens then":
  the first line of that design is mechanical — bounded, jittered
  retry absorbs *transient* faults without any human in the loop;
* but retrying is only the right remedy while the fault is transient.
  A persistent fault makes retry pure waste: "the hard challenge is
  ... to report the problem to the right person" — the remedy must
  move from the machinery (retry) to the actor who can act (the
  operator), which is exactly what a circuit breaker mechanises.

Workload: a user ``u`` reaching ``dst`` across a provider (``p1``,
``p2``).  A deterministic :class:`~tussle.resil.FaultPlan` flaps the
provider's internal link: the *transient* regime downs it for 0.5 s
every 3 s; the *persistent* regime downs it at t=0 forever.  A fixed
probe grid sends under three strategies — single send, seeded-backoff
retry (:class:`~tussle.netsim.transport.ReliableSender`), and retry
behind a shared :class:`~tussle.resil.CircuitBreaker`.  The retry
parameters are chosen so recovery in the transient regime is
*guaranteed* for every jitter seed: the minimum total backoff span
(2.375 s) outlasts any outage (0.5 s), and the maximum attempt gap
(~1 s) is smaller than every up-window (≥ 2.5 s).
"""

from __future__ import annotations

from typing import Dict, List

from ..canon import derive_seed
from ..netsim.faults import Audience, FaultReporter
from ..netsim.forwarding import ForwardingEngine
from ..netsim.transport import ReliableSender
from ..resil import (
    Backoff,
    ChaosInjector,
    CircuitBreaker,
    FaultEvent,
    FaultKind,
    FaultPlan,
    link_target,
)
from ..topogen.presets import (
    FLAKY_PROVIDER_NODES as _PROVIDER_NODES,
    flaky_provider_network as _build_network,
)
from .common import ExperimentResult, Table

__all__ = ["run_r02"]

#: Probe launch times: three land inside transient outages
#: ([0.7, 1.2], [3.7, 4.2], [6.7, 7.2]), six in healthy windows.
_PROBE_TIMES = (0.2, 0.9, 2.0, 3.0, 3.9, 5.0, 6.0, 6.9, 8.0)


def _engine() -> ForwardingEngine:
    engine = ForwardingEngine(_build_network())
    engine.install_shortest_path_tables()
    return engine


def _transient_plan() -> FaultPlan:
    """Down the provider link for 0.5 s every 3 s."""
    target = link_target("p1", "p2")
    plan = FaultPlan()
    for start in (0.7, 3.7, 6.7):
        plan.add(FaultEvent(start, FaultKind.LINK_DOWN, target))
        plan.add(FaultEvent(start + 0.5, FaultKind.LINK_UP, target))
    return plan


def _persistent_plan() -> FaultPlan:
    """Down the provider link at t=0, never repaired."""
    return FaultPlan(events=[
        FaultEvent(0.0, FaultKind.LINK_DOWN, link_target("p1", "p2"))])


def _backoff(seed: int, regime: str, strategy: str, probe: int) -> Backoff:
    """Per-probe retry schedule; only the jitter stream varies with seed."""
    return Backoff(base=0.25, factor=2.0, cap=1.0, max_retries=6, jitter=0.5,
                   seed=derive_seed(seed, "r02", regime, strategy, str(probe)))


def _run_strategy(regime: str, strategy: str, seed: int) -> Dict[str, object]:
    plan = _transient_plan() if regime == "transient" else _persistent_plan()
    breaker = (CircuitBreaker(failure_threshold=4, reset_timeout=10.0)
               if strategy == "breaker" else None)
    delivered = 0
    attempts = 0
    last_receipt = None
    for index, start in enumerate(_PROBE_TIMES):
        engine = _engine()
        injector = ChaosInjector(engine, plan)
        injector.advance(start)
        if strategy == "none":
            backoff = Backoff(base=0.25, factor=2.0, cap=1.0, max_retries=0,
                              jitter=0.5, seed=0)
        else:
            backoff = _backoff(seed, regime, strategy, index)
        sender = ReliableSender(engine, "u", "dst", backoff=backoff,
                                timeout=60.0, breaker=breaker,
                                on_advance=injector.advance)
        outcome = sender.send(now=start)
        delivered += 1 if outcome.delivered else 0
        attempts += outcome.attempts
        if outcome.final_receipt is not None:
            last_receipt = outcome.final_receipt
    return {
        "regime": regime,
        "strategy": strategy,
        "delivery_rate": delivered / len(_PROBE_TIMES),
        "attempts": attempts,
        "refusals": breaker.refusals if breaker is not None else 0,
        "trips": breaker.trips if breaker is not None else 0,
        "last_receipt": last_receipt,
    }


def run_r02(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="R02",
        title="Retry absorbs transients; breakers escalate persistence",
        paper_claim=("§VI-A: design for failure — mechanical retry is the "
                     "remedy for transient faults, but a persistent fault "
                     "must stop consuming retries and reach the operator."),
    )
    table = Table(
        "R02: delivery and retry cost by regime and strategy",
        ["regime", "strategy", "delivery_rate", "attempts", "refusals",
         "trips"],
    )
    outcomes: Dict[tuple, Dict[str, object]] = {}
    rows: List[Dict[str, object]] = []
    for regime in ("transient", "persistent"):
        for strategy in ("none", "retry", "breaker"):
            row = _run_strategy(regime, strategy, seed)
            outcomes[(regime, strategy)] = row
            rows.append(row)
            table.add_row(**{k: row[k] for k in table.columns})
    result.tables.append(table)

    t_none = outcomes[("transient", "none")]
    t_retry = outcomes[("transient", "retry")]
    t_breaker = outcomes[("transient", "breaker")]
    p_retry = outcomes[("persistent", "retry")]
    p_breaker = outcomes[("persistent", "breaker")]

    result.add_check(
        "single sends lose probes to transient outages",
        0.0 < float(t_none["delivery_rate"]) < 1.0,
        f"delivery {t_none['delivery_rate']:.3f} without retry",
    )
    result.add_check(
        "seeded-backoff retry rides out every transient outage",
        float(t_retry["delivery_rate"]) == 1.0,
        f"{t_retry['attempts']} attempts across {len(_PROBE_TIMES)} probes",
    )
    result.add_check(
        "the breaker stays closed through transients (no trips, full "
        "delivery)",
        float(t_breaker["delivery_rate"]) == 1.0
        and int(t_breaker["trips"]) == 0,
        f"trips={t_breaker['trips']}",
    )
    result.add_check(
        "retries cannot rescue a persistent fault",
        float(p_retry["delivery_rate"]) == 0.0,
        f"{p_retry['attempts']} attempts, all wasted",
    )
    result.add_check(
        "the breaker cuts the retry budget burned on a persistent fault "
        "and refuses further attempts",
        int(p_breaker["attempts"]) < int(p_retry["attempts"])
        and int(p_breaker["refusals"]) > 0
        and int(p_breaker["trips"]) >= 1,
        f"{p_breaker['attempts']} vs {p_retry['attempts']} attempts, "
        f"{p_breaker['refusals']} refusals",
    )
    blame = FaultReporter().route(p_retry["last_receipt"], _PROVIDER_NODES)
    result.add_check(
        "after retry exhaustion the fault report addresses the operator",
        blame.audience is Audience.OPERATOR and blame.actionable,
        blame.summary,
    )
    return result
