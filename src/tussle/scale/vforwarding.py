"""VectorForwardingEngine: the NumPy backend for packet forwarding.

Drop-in for :class:`tussle.netsim.forwarding.ForwardingEngine` on the
table-routed, middlebox-free fragment — same table-installation API,
same topology object — but packets live in
:class:`~tussle.scale.narrays.PacketArrays` columns and each forwarding
round runs through the kernels in :mod:`tussle.scale.nkernels`.  The
parity harness's ``netsim`` pair (:mod:`tussle.scale.parity`) asserts
this backend and the scalar engine emit byte-identical round records
from identical specs.

Round structure (mirrors the scalar ``_forward`` loop exactly):

* **Round 0** classifies QoS priority in packet order (the scalar
  classifier's accumulation sequence) and delivers packets already at
  their destination — the scalar loop's first delivered check before
  any hop.
* **Rounds 1..MAX_TTL** each attempt one hop for every in-flight
  packet: no-route and link-down lanes resolve without moving (the
  scalar returns its receipt *before* accruing that link's latency),
  movers accrue the link latency and advance, and — below the TTL
  bound — packets arriving at their destination resolve as delivered.
  At round ``MAX_TTL`` every survivor resolves as TTL-exceeded instead,
  matching the scalar loop running out of iterations.

The engine covers what experiments sweep at scale; middleboxes and
source routes keep richer per-packet semantics and stay on the scalar
engine, so attaching one here raises :class:`~tussle.errors.ScaleError`
rather than silently diverging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..errors import ScaleError
from ..netsim.decision import MAX_TTL
from ..netsim.forwarding import DeliveryStatus
from ..netsim.topology import Network
from ..obs.runtime import current as _obs_current
from . import nkernels
from .narrays import FibArrays, LinkArrays, NetIndex, PacketArrays

__all__ = ["NetRound", "STATUS_NAMES", "VectorForwardingEngine"]

#: Status-code -> canonical :class:`DeliveryStatus` value string.
STATUS_NAMES = {
    nkernels.IN_FLIGHT: "in-flight",
    nkernels.DELIVERED: DeliveryStatus.DELIVERED.value,
    nkernels.NO_ROUTE: DeliveryStatus.NO_ROUTE.value,
    nkernels.LINK_DOWN: DeliveryStatus.LINK_DOWN.value,
    nkernels.TTL_EXCEEDED: DeliveryStatus.TTL_EXCEEDED.value,
}


@dataclass
class NetRound:
    """One forwarding round's record — the parity comparison unit.

    ``latency`` is this round's total accrued link latency summed in
    packet order; ``prioritized``/``revenue`` are only non-zero in round
    0 (classification happens once per batch, like the scalar classifier
    seeing each packet once).
    """

    index: int
    delivered: int
    no_route: int
    link_down: int
    ttl_exceeded: int
    in_flight: int
    latency: float
    prioritized: int
    revenue: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "delivered": self.delivered,
            "no_route": self.no_route,
            "link_down": self.link_down,
            "ttl_exceeded": self.ttl_exceeded,
            "in_flight": self.in_flight,
            "latency": self.latency,
            "prioritized": self.prioritized,
            "revenue": self.revenue,
        }


class VectorForwardingEngine:
    """Whole-batch packet forwarding over structure-of-arrays state.

    Tables install through the scalar engine's validating API and the
    dense FIB is rebuilt lazily after any table change.
    """

    def __init__(self, network: Network):
        self.network = network
        self.index = NetIndex.from_network(network)
        self.tables: Dict[str, Dict[str, str]] = {}
        self.history: List[NetRound] = []
        self._fib: Optional[FibArrays] = None
        self._links: Optional[LinkArrays] = None
        ctx = _obs_current()
        if ctx.metrics.enabled:
            scope = ctx.metrics.scope("scale.nkernel")
            self._c_rounds = scope.counter("net_rounds")
            self._h_bytes = scope.histogram("net_kernel_bytes")
        else:
            self._c_rounds = None
            self._h_bytes = None

    # ------------------------------------------------------------------
    # Configuration (mirrors the scalar engine)
    # ------------------------------------------------------------------
    def install_table(self, node: str, table: Dict[str, str]) -> None:
        """Install (replacing) the forwarding table of ``node``."""
        self.network.node(node)
        for dst, nxt in table.items():
            if not self.network.has_node(nxt):
                raise ScaleError(
                    f"table at {node!r} names unknown next hop {nxt!r}")
        self.tables[node] = dict(table)
        self._fib = None

    def install_tables(self, tables: Dict[str, Dict[str, str]]) -> None:
        for node, table in tables.items():
            self.install_table(node, table)

    def install_shortest_path_tables(self) -> None:
        """Populate every node's table with minimum-hop next hops (BFS).

        Same construction as the scalar engine: both read
        :meth:`~tussle.netsim.topology.Network.next_hop_tables`.
        """
        self.tables.update(self.network.next_hop_tables())
        self._fib = None

    def attach_middlebox(self, node: str, box: object) -> None:
        """Middleboxes are scalar-only; refuse loudly instead of diverging."""
        raise ScaleError(
            "VectorForwardingEngine forwards the middlebox-free fragment; "
            "attach middleboxes to the scalar ForwardingEngine instead")

    def refresh_topology(self) -> None:
        """Re-snapshot link state (after fail_link/restore_link)."""
        self._links = None

    def fib(self) -> FibArrays:
        """The dense FIB of the installed tables (rebuilt after a change)."""
        if self._fib is None:
            self._fib = FibArrays.from_tables(self.tables, self.index)
        return self._fib

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send_batch(
        self,
        packets: PacketArrays,
        tos_threshold: Optional[int] = None,
        bill_per_packet: float = 0.0,
    ) -> List[NetRound]:
        """Forward a whole batch; returns (and stores) the round records.

        ``tos_threshold`` enables round-0 QoS classification with the
        semantics of :class:`~tussle.netsim.qos.TosQosClassifier`
        (``bill_per_packet`` > 0 accrues revenue per prioritized packet,
        in packet order).  Final per-packet state lands back on
        ``packets`` (status/current/latency/hops/prioritized columns).
        """
        fib = self.fib()
        if self._links is None:
            self._links = LinkArrays.from_network(self.network, self.index)
        links = self._links

        n = len(packets)
        status = np.full(n, nkernels.IN_FLIGHT, dtype=np.int64)
        current = packets.src.copy()
        latency = np.zeros(n, dtype=np.float64)
        hops = np.ones(n, dtype=np.int64)
        active = np.ones(n, dtype=bool)

        if tos_threshold is not None:
            prioritized = nkernels.priority_mask(packets.tos, tos_threshold)
            revenue = nkernels.priority_revenue(prioritized, bill_per_packet)
        else:
            prioritized = np.zeros(n, dtype=bool)
            revenue = 0.0

        arrived = nkernels.delivered_mask(active, current, packets.dst)
        status = nkernels.resolve_status(status, arrived, nkernels.DELIVERED)
        active = active & ~arrived
        rounds = [NetRound(
            index=0,
            delivered=nkernels.mask_count(arrived),
            no_route=0,
            link_down=0,
            ttl_exceeded=0,
            in_flight=nkernels.mask_count(active),
            latency=0.0,
            prioritized=nkernels.mask_count(prioritized),
            revenue=revenue,
        )]

        r = 0
        while nkernels.mask_count(active) > 0 and r < MAX_TTL:
            r += 1
            hop = nkernels.lookup_next_hop(fib.next_hop, current, packets.dst)
            no_route = nkernels.no_route_mask(active, hop)
            link_down = nkernels.link_down_mask(active, links.usable,
                                                current, hop)
            moving = active & ~no_route & ~link_down
            deltas = nkernels.hop_latency_deltas(links.latency, current,
                                                 hop, moving)
            latency = latency + deltas
            current = nkernels.advance(current, hop, moving)
            hops = hops + moving
            status = nkernels.resolve_status(status, no_route,
                                             nkernels.NO_ROUTE)
            status = nkernels.resolve_status(status, link_down,
                                             nkernels.LINK_DOWN)
            active = moving
            if r < MAX_TTL:
                arrived = nkernels.delivered_mask(active, current,
                                                  packets.dst)
                status = nkernels.resolve_status(status, arrived,
                                                 nkernels.DELIVERED)
                active = active & ~arrived
                ttl_count = 0
            else:
                arrived = np.zeros(n, dtype=bool)
                status = nkernels.resolve_status(status, active,
                                                 nkernels.TTL_EXCEEDED)
                ttl_count = nkernels.mask_count(active)
                active = np.zeros(n, dtype=bool)
            rounds.append(NetRound(
                index=r,
                delivered=nkernels.mask_count(arrived),
                no_route=nkernels.mask_count(no_route),
                link_down=nkernels.mask_count(link_down),
                ttl_exceeded=ttl_count,
                in_flight=nkernels.mask_count(active),
                latency=nkernels.round_total(deltas),
                prioritized=0,
                revenue=0.0,
            ))

        packets.status = status
        packets.current = current
        packets.latency = latency
        packets.hops = hops
        packets.prioritized = prioritized
        self.history = rounds
        if self._c_rounds is not None:
            self._c_rounds.inc(len(rounds))
            self._h_bytes.observe(
                nkernels.net_kernel_bytes(n, len(self.index)))
        return rounds

    # ------------------------------------------------------------------
    # Aggregate measurements (parity with the scalar engine's helpers)
    # ------------------------------------------------------------------
    def delivery_rate(self) -> float:
        """Fraction of the last batch that reached a destination."""
        if not self.history:
            return 0.0
        total = self.history[0].in_flight + self.history[0].delivered
        if total == 0:
            return 0.0
        delivered = 0
        for record in self.history:
            delivered += record.delivered
        return delivered / total

    def status_name(self, code: int) -> str:
        """Canonical status string for a packet status code."""
        return STATUS_NAMES[int(code)]

    def delivered_to(self, packets: PacketArrays, i: int) -> Optional[str]:
        """Where packet ``i`` landed, or ``None`` if it never arrived."""
        if int(packets.status[i]) != nkernels.DELIVERED:
            return None
        return self.index.names[int(packets.current[i])]
