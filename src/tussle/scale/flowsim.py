"""Flow-level approximation backend: the top of the fidelity ladder.

Packet backends (scalar and vector) simulate every packet's journey;
this backend simulates *flows* — (src, dst, demand) aggregates — against
a path table computed once per topology.  The approximation is declared,
not hidden (the SimBricks discipline): what it keeps and what it drops
is written down in ``DESIGN.md`` ("Scale backends") and re-stated here.

Kept, exactly:

* **Routing outcomes.**  The path table is one batch of probe packets,
  one per (src, dst) pair, sent through
  :meth:`~tussle.scale.vforwarding.VectorForwardingEngine.send_batch`,
  so a flow is delivered/no-route/link-down/TTL-exceeded exactly when a
  packet between the same endpoints would be, and its path latency is
  bitwise equal to that packet's accumulated latency.
* **Link traversal.**  Per-link load is accumulated by replaying each
  delivered flow's hop sequence from the same FIB.

Dropped, deliberately:

* **Queueing and per-packet interleaving.**  Demand maps to link load in
  one shot; there is no round-by-round contention, so utilization above
  1.0 reports *oversubscription* rather than simulated drops.
* **Transport dynamics.**  No AIMD, no retries — those live in
  :mod:`tussle.netsim.transport` at packet fidelity.

The payoff is scale: routing a million flows is one ``(n_flows,)``
gather against the ``(n, n)`` path table plus a bounded hop walk, which
finishes in seconds where per-packet simulation would take hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import ScaleError
from ..netsim.decision import MAX_TTL
from ..netsim.topology import Network
from . import nkernels
from .narrays import PacketArrays
from .vforwarding import VectorForwardingEngine

__all__ = ["FlowArrays", "FlowReport", "FlowSim", "random_flows"]


class FlowArrays:
    """Column-oriented flow population: endpoints and offered demand."""

    def __init__(self, src: np.ndarray, dst: np.ndarray,
                 demand: np.ndarray):
        self.src = np.asarray(src, dtype=np.int64)
        self.dst = np.asarray(dst, dtype=np.int64)
        self.demand = np.asarray(demand, dtype=np.float64)
        n = self.src.shape[0]
        if self.dst.shape != (n,) or self.demand.shape != (n,):
            raise ScaleError(
                f"flow columns must share shape ({n},), got "
                f"dst={self.dst.shape} demand={self.demand.shape}")

    def __len__(self) -> int:
        return int(self.src.shape[0])


def random_flows(n_flows: int, n_nodes: int, seed: int) -> FlowArrays:
    """A reproducible synthetic flow population.

    Sources are uniform over nodes, destinations uniform over the other
    nodes, demands exponential with mean 1.  Uses NumPy's
    generator (not the shared scalar stream): flow populations are
    approximation-backend inputs, never parity subjects.
    """
    if n_nodes < 2:
        raise ScaleError("flows need at least two nodes")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, size=n_flows, dtype=np.int64)
    dst_raw = rng.integers(0, n_nodes - 1, size=n_flows, dtype=np.int64)
    dst = dst_raw + (dst_raw >= src)
    demand = rng.exponential(1.0, size=n_flows)
    return FlowArrays(src, dst, demand)


@dataclass
class FlowReport:
    """Aggregate outcome of routing one flow population.

    ``utilization`` maps ``"a<->b"`` link keys to load/capacity ratios
    (``inf`` for loaded zero-capacity links); values above 1.0 flag
    oversubscription — this backend does not simulate the resulting
    drops, it reports where they would start.
    """

    n_flows: int
    delivered: int
    no_route: int
    link_down: int
    ttl_exceeded: int
    demand_offered: float
    demand_delivered: float
    mean_latency: float
    utilization: Dict[str, float]

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.n_flows if self.n_flows else 0.0

    def oversubscribed(self, threshold: float = 1.0) -> List[str]:
        """Link keys whose utilization exceeds ``threshold``."""
        return sorted(key for key, value in self.utilization.items()
                      if value > threshold)


class FlowSim:
    """Route flow populations against a once-computed path table.

    The path table is one probe per (src, dst) pair, forwarded as a
    single batch by :class:`~tussle.scale.vforwarding.VectorForwardingEngine`
    over the network's shortest-path tables, so the fidelity drop is
    confined to load aggregation — routing outcomes and path latencies
    agree with the packet backends bit for bit.
    """

    def __init__(self, network: Network):
        self.network = network
        engine = VectorForwardingEngine(network)
        engine.install_shortest_path_tables()
        self.index = engine.index
        n = len(self.index)
        probes = PacketArrays(src=np.repeat(np.arange(n, dtype=np.int64), n),
                              dst=np.tile(np.arange(n, dtype=np.int64), n),
                              tos=np.zeros(n * n, dtype=np.int64))
        engine.send_batch(probes)
        self._next_hop = engine.fib().next_hop
        self._path_status = probes.status.reshape(n, n)
        self._path_latency = probes.latency.reshape(n, n)

    def path_status(self, src: int, dst: int) -> int:
        """Packet-kernel status code for the (src, dst) pair."""
        return int(self._path_status[src, dst])

    def path_latency(self, src: int, dst: int) -> float:
        """Accumulated path latency — bitwise equal to a probe packet's."""
        return float(self._path_latency[src, dst])

    def route(self, flows: FlowArrays) -> FlowReport:
        """Route a whole flow population in aggregate."""
        status = self._fast_gather(self._path_status, flows)
        delivered_mask = status == nkernels.DELIVERED
        latency = self._fast_gather(self._path_latency, flows)

        # Per-link demand: walk delivered flows hop by hop (bounded by
        # MAX_TTL rounds), scattering demand onto an (n, n) load matrix.
        n = len(self.index)
        load = np.zeros((n, n), dtype=np.float64)
        current = flows.src.copy()
        walking = delivered_mask & (current != flows.dst)
        steps = 0
        while np.count_nonzero(walking) and steps < MAX_TTL:
            steps += 1
            hop = self._next_hop[current, flows.dst]
            safe_hop = np.where(hop >= 0, hop, 0)
            np.add.at(load, (current[walking], safe_hop[walking]),
                      flows.demand[walking])
            current = np.where(walking, safe_hop, current)
            walking = walking & (current != flows.dst)

        utilization: Dict[str, float] = {}
        for link in self.network.links:
            i = self.index.of(link.a)
            j = self.index.of(link.b)
            total = float(load[i, j] + load[j, i])
            if total == 0.0:
                continue
            key = f"{link.a}<->{link.b}"
            utilization[key] = (total / link.capacity if link.capacity > 0
                                else float("inf"))

        delivered = int(np.count_nonzero(delivered_mask))
        demand_delivered = float(np.sum(flows.demand[delivered_mask]))
        return FlowReport(
            n_flows=len(flows),
            delivered=delivered,
            no_route=int(np.count_nonzero(status == nkernels.NO_ROUTE)),
            link_down=int(np.count_nonzero(status == nkernels.LINK_DOWN)),
            ttl_exceeded=int(
                np.count_nonzero(status == nkernels.TTL_EXCEEDED)),
            demand_offered=float(np.sum(flows.demand)),
            demand_delivered=demand_delivered,
            mean_latency=(float(np.mean(latency[delivered_mask]))
                          if delivered else 0.0),
            utilization=utilization,
        )

    @staticmethod
    def _fast_gather(table: np.ndarray, flows: FlowArrays) -> np.ndarray:
        return table[flows.src, flows.dst]
