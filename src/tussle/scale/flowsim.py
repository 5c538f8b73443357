"""Flow-level approximation backend: the top of the fidelity ladder.

Packet backends (scalar and vector) simulate every packet's journey;
this backend simulates *flows* — (src, dst, demand) aggregates — against
a path table computed once per topology.  The approximation is declared,
not hidden (the SimBricks discipline): what it keeps and what it drops
is written down in ``DESIGN.md`` ("Scale backends") and re-stated here.

Kept, exactly:

* **Routing outcomes.**  The path table is computed by running the very
  same :mod:`tussle.scale.nkernels` forwarding rounds over one probe
  packet per (src, dst) pair, so a flow is delivered/no-route/link-down/
  TTL-exceeded exactly when a packet between the same endpoints would
  be, and its path latency is bitwise equal to that packet's accumulated
  latency.
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
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ScaleError
from ..netsim.decision import MAX_TTL
from ..netsim.topology import Network
from . import nkernels
from .narrays import FibArrays, LinkArrays, NetIndex

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


def random_flows(n_flows: int, n_nodes: int, seed: int,
                 mean_demand: float = 1.0) -> FlowArrays:
    """A reproducible synthetic flow population.

    Sources are uniform over nodes, destinations uniform over the other
    nodes, demands exponential with the given mean.  Uses NumPy's
    generator (not the shared scalar stream): flow populations are
    approximation-backend inputs, never parity subjects.
    """
    if n_nodes < 2:
        raise ScaleError("flows need at least two nodes")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, size=n_flows, dtype=np.int64)
    dst_raw = rng.integers(0, n_nodes - 1, size=n_flows, dtype=np.int64)
    dst = dst_raw + (dst_raw >= src)
    demand = rng.exponential(mean_demand, size=n_flows)
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

    The path table is produced by the *packet* kernels: one probe per
    (src, dst) pair forwarded through the same round loop as
    :class:`~tussle.scale.vforwarding.VectorForwardingEngine`, so the
    fidelity drop is confined to load aggregation — routing outcomes and
    path latencies agree with the packet backends bit for bit.
    """

    def __init__(self, network: Network,
                 tables: Optional[Dict[str, Dict[str, str]]] = None):
        self.network = network
        self.index = NetIndex.from_network(network)
        if tables is None:
            tables = network.next_hop_tables()
        self._fib = FibArrays.from_tables(tables, self.index)
        self._links = LinkArrays.from_network(network, self.index)
        (self._path_status, self._path_latency,
         self._path_hops) = self._probe_all_pairs()

    def _probe_all_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forward one probe per (src, dst) pair through the kernels."""
        n = len(self.index)
        src = np.repeat(np.arange(n, dtype=np.int64), n)
        dst = np.tile(np.arange(n, dtype=np.int64), n)
        status = np.full(n * n, nkernels.IN_FLIGHT, dtype=np.int64)
        current = src.copy()
        latency = np.zeros(n * n, dtype=np.float64)
        hops = np.ones(n * n, dtype=np.int64)
        active = np.ones(n * n, dtype=bool)

        arrived = nkernels.delivered_mask(active, current, dst)
        status = nkernels.resolve_status(status, arrived, nkernels.DELIVERED)
        active = active & ~arrived
        r = 0
        while nkernels.mask_count(active) > 0 and r < MAX_TTL:
            r += 1
            hop = nkernels.lookup_next_hop(self._fib.next_hop, current, dst)
            no_route = nkernels.no_route_mask(active, hop)
            link_down = nkernels.link_down_mask(active, self._links.usable,
                                                current, hop)
            moving = active & ~no_route & ~link_down
            latency = latency + nkernels.hop_latency_deltas(
                self._links.latency, current, hop, moving)
            current = nkernels.advance(current, hop, moving)
            hops = hops + moving
            status = nkernels.resolve_status(status, no_route,
                                             nkernels.NO_ROUTE)
            status = nkernels.resolve_status(status, link_down,
                                             nkernels.LINK_DOWN)
            active = moving
            if r < MAX_TTL:
                arrived = nkernels.delivered_mask(active, current, dst)
                status = nkernels.resolve_status(status, arrived,
                                                 nkernels.DELIVERED)
                active = active & ~arrived
            else:
                status = nkernels.resolve_status(status, active,
                                                 nkernels.TTL_EXCEEDED)
                active = np.zeros(n * n, dtype=bool)

        shape = (n, n)
        return (status.reshape(shape), latency.reshape(shape),
                hops.reshape(shape))

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
            hop = self._fib.next_hop[current, flows.dst]
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
