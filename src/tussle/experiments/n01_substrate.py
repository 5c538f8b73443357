"""N01: forwarding outcomes are invariant across substrate fidelity.

The scale experiments (L01/L02) established that the *market* side of a
tussle can be replayed on a vectorized backend without changing a single
verdict.  N01 makes the same claim for the *network* substrate: the QoS
priority-billing traffic of E07/X06, forwarded over a dumbbell, produces
identical per-packet outcomes whether the substrate is the scalar
packet engine, the vectorized packet engine, or the flow-level
approximation — fidelity is a declared performance choice, never a
source of drift in what the experiment concludes.

``fidelity`` selects the subject backend and is a sweepable axis
(``packet-scalar`` / ``packet-vector`` / ``flow``); the scalar engine
always runs alongside as the oracle.  ``packet-scalar`` as the subject
checks the oracle against a fresh second run of itself — a determinism
control for the comparison harness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..canon import ordered_sum
from ..errors import ScaleError
from ..netsim.forwarding import ForwardingEngine
from ..netsim.qos import PRIORITY_TOS, TosQosClassifier
from ..netsim.topology import dumbbell_topology
from ..scale.flowsim import FlowSim
from ..scale.narrays import (
    NetIndex,
    PacketArrays,
    packets_from_traffic,
    traffic_stream,
)
from ..scale.vforwarding import STATUS_NAMES, VectorForwardingEngine
from .common import ExperimentResult, Table

__all__ = ["FIDELITIES", "run_n01"]

#: The fidelity ladder, cheapest-per-packet last (see DESIGN.md
#: "Scale backends").
FIDELITIES = ("packet-scalar", "packet-vector", "flow")

_BILL = 0.75

#: One observed outcome per traffic triple: (status, latency,
#: delivered_to) — the fields every rung of the ladder must agree on.
_Outcome = Tuple[str, float, Optional[str]]


def _scalar_outcomes(network, traffic) -> Tuple[List[_Outcome], float]:
    engine = ForwardingEngine(network)
    engine.install_shortest_path_tables()
    classifier = TosQosClassifier(threshold=PRIORITY_TOS,
                                  bill_per_packet=_BILL)
    packets = packets_from_traffic(traffic)
    for packet in packets:
        classifier.prioritize(packet)
    outcomes = []
    for packet in packets:
        receipt = engine.send(packet)
        outcomes.append((receipt.status.value, receipt.latency,
                         receipt.delivered_to))
    return outcomes, classifier.revenue


def _vector_outcomes(network, traffic) -> Tuple[List[_Outcome], float]:
    engine = VectorForwardingEngine(network)
    engine.install_shortest_path_tables()
    batch = PacketArrays.from_traffic(traffic,
                                      NetIndex.from_network(network))
    rounds = engine.send_batch(batch, tos_threshold=PRIORITY_TOS,
                               bill_per_packet=_BILL)
    outcomes = [
        (engine.status_name(batch.status[i]), float(batch.latency[i]),
         engine.delivered_to(batch, i))
        for i in range(len(batch))
    ]
    return outcomes, rounds[0].revenue


def _flow_outcomes(network, traffic) -> Tuple[List[_Outcome], float]:
    sim = FlowSim(network)
    outcomes = []
    for src, dst, _ in traffic:
        i = sim.index.of(src)
        j = sim.index.of(dst)
        status = STATUS_NAMES[sim.path_status(i, j)]
        delivered_to = dst if status == "delivered" else None
        outcomes.append((status, sim.path_latency(i, j), delivered_to))
    # Flow fidelity declares away QoS billing (DESIGN.md): report the
    # analytic revenue the packet classifiers would have collected.
    revenue = _BILL * sum(1 for _, _, tos in traffic
                          if tos >= PRIORITY_TOS)
    return outcomes, revenue


_BACKENDS = {
    "packet-scalar": _scalar_outcomes,
    "packet-vector": _vector_outcomes,
    "flow": _flow_outcomes,
}


def run_n01(seed: int = 0, fidelity: str = "packet-vector",
            n_packets: int = 240) -> ExperimentResult:
    """Replay one traffic sample on the oracle and the chosen fidelity."""
    if fidelity not in _BACKENDS:
        raise ScaleError(
            f"unknown fidelity {fidelity!r}; choose from {FIDELITIES}")

    network = dumbbell_topology(6, 6)
    traffic = traffic_stream(network.node_names(), n_packets, seed)
    oracle_network = dumbbell_topology(6, 6)
    oracle, oracle_revenue = _scalar_outcomes(oracle_network, traffic)
    subject, subject_revenue = _BACKENDS[fidelity](network, traffic)

    table = Table(
        "N01: per-packet outcomes, scalar oracle vs subject backend",
        ["backend", "delivered", "delivery_rate", "total_latency",
         "revenue"],
    )
    result = ExperimentResult(
        experiment_id="N01",
        title="Substrate fidelity does not change forwarding outcomes",
        paper_claim=("Tussles must be separable from mechanism: the "
                     "QoS-billing traffic of E07/X06 reaches identical "
                     "per-packet verdicts on every substrate fidelity "
                     "(scalar packets, vectorized packets, flow-level), "
                     "so scaling the simulation never rewrites what the "
                     "experiment concludes."),
        tables=[table],
    )

    def summarize(label: str, outcomes: List[_Outcome],
                  revenue: float) -> None:
        delivered = sum(1 for status, _, _ in outcomes
                        if status == "delivered")
        table.add_row(
            backend=label,
            delivered=delivered,
            delivery_rate=delivered / len(outcomes),
            total_latency=ordered_sum(latency for _, latency, _ in outcomes),
            revenue=revenue,
        )

    summarize("oracle (packet-scalar)", oracle, oracle_revenue)
    summarize(f"subject ({fidelity})", subject, subject_revenue)

    status_agree = all(o[0] == s[0] and o[2] == s[2]
                       for o, s in zip(oracle, subject))
    result.add_check(
        f"{fidelity}: every delivery outcome matches the scalar oracle",
        status_agree,
        detail=f"{len(traffic)} packets, "
               f"{sum(1 for o, s in zip(oracle, subject) if o[0] != s[0])} "
               f"status disagreements",
    )
    latency_equal = all(o[1] == s[1] for o, s in zip(oracle, subject))
    result.add_check(
        f"{fidelity}: per-packet latency is bitwise equal to the oracle",
        latency_equal,
        detail="float equality, no tolerance — parity, not approximation",
    )
    result.add_check(
        f"{fidelity}: priority billing revenue matches the oracle",
        subject_revenue == oracle_revenue,
        detail=f"oracle {oracle_revenue:.2f} vs subject "
               f"{subject_revenue:.2f}",
    )
    return result
