"""Packet forwarding over a topology, with middleboxes and source routes.

The :class:`ForwardingEngine` binds together a :class:`~tussle.netsim.topology.Network`,
per-node forwarding tables and any middleboxes attached to nodes. It
resolves each packet's journey hop by hop in one synchronous call, so
latency, interference and diagnosis are all observable on the receipt.

Design notes
------------
* Forwarding tables map destination node name -> next hop. Routing
  protocols (:mod:`tussle.routing`) install these tables.
* A packet with a ``source_route`` is forwarded along the explicit path
  when :attr:`ForwardingEngine.honor_source_routes` is True — the paper
  notes "service providers do not like loose source routes" (§V-A-4), so
  engines can be configured to reject them, which experiments exploit.
* Every delivery attempt produces a :class:`DeliveryReceipt`, including
  failures with a diagnostic trace — implementing "failures of transparency
  will occur — design what happens then" (§VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..errors import RoutingError
from . import decision
from .middlebox import Action, Middlebox, TransparencyLedger
from .packets import Packet
from .topology import Network

__all__ = ["DeliveryStatus", "DeliveryReceipt", "ForwardingEngine"]

#: Safety bound on path length to catch routing loops (the canonical
#: definition lives with the other shared rules in ``netsim.decision``).
MAX_TTL = decision.MAX_TTL


class DeliveryStatus(Enum):
    """Terminal outcome of a packet's journey."""

    DELIVERED = "delivered"
    DROPPED_BY_MIDDLEBOX = "dropped-by-middlebox"
    NO_ROUTE = "no-route"
    LINK_DOWN = "link-down"
    TTL_EXCEEDED = "ttl-exceeded"
    SOURCE_ROUTE_REFUSED = "source-route-refused"
    REDIRECTED = "redirected"


@dataclass
class DeliveryReceipt:
    """What happened to one packet.

    ``diagnostic`` is the human-readable fault report the paper calls for:
    who interfered, where, and whether the interference was disclosed.
    A silent (non-disclosing) middlebox produces a receipt whose diagnostic
    does *not* name it — only the hop where the packet vanished.
    """

    packet: Packet
    status: DeliveryStatus
    path: List[str] = field(default_factory=list)
    latency: float = 0.0
    delivered_to: Optional[str] = None
    interfering_node: Optional[str] = None
    diagnostic: str = ""

    @property
    def delivered(self) -> bool:
        return self.status in (DeliveryStatus.DELIVERED, DeliveryStatus.REDIRECTED)


class ForwardingEngine:
    """Hop-by-hop packet delivery with middlebox processing.

    Parameters
    ----------
    network:
        The topology to forward over.
    honor_source_routes:
        Whether routers follow packets' explicit source routes. Providers
        in E04 configure this off to model BGP-era provider control.
    """

    def __init__(
        self,
        network: Network,
        honor_source_routes: bool = True,
    ):
        self.network = network
        self.honor_source_routes = honor_source_routes
        self.tables: Dict[str, Dict[str, str]] = {}
        self.middleboxes: Dict[str, List[Middlebox]] = {}
        self.ledger = TransparencyLedger()
        self.receipts: List[DeliveryReceipt] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def install_table(self, node: str, table: Dict[str, str]) -> None:
        """Install (replacing) the forwarding table of ``node``."""
        self.network.node(node)
        for dst, nxt in table.items():
            if not self.network.has_node(nxt):
                raise RoutingError(f"table at {node!r} names unknown next hop {nxt!r}")
        self.tables[node] = dict(table)

    def install_tables(self, tables: Dict[str, Dict[str, str]]) -> None:
        for node, table in tables.items():
            self.install_table(node, table)

    def attach_middlebox(self, node: str, box: Middlebox) -> None:
        """Attach a middlebox to process every packet transiting ``node``."""
        self.network.node(node)
        self.middleboxes.setdefault(node, []).append(box)

    def detach_middleboxes(self, node: str) -> None:
        self.middleboxes.pop(node, None)

    def install_shortest_path_tables(self) -> None:
        """Populate every node's table with minimum-hop next hops (BFS).

        Convenience for experiments that do not exercise routing policy.
        """
        self.tables.update(self.network.next_hop_tables())

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(self, packet: Packet, from_node: Optional[str] = None) -> DeliveryReceipt:
        """Deliver ``packet`` from its source (or ``from_node``) to its dest.

        Synchronous: the full journey is resolved immediately; the receipt
        carries accumulated path latency.
        """
        start = from_node or packet.header.src
        receipt = self._forward(packet, start)
        self.receipts.append(receipt)
        return receipt

    def _forward(self, packet: Packet, start: str) -> DeliveryReceipt:
        current = start
        path = [current]
        latency = 0.0
        packet.record_hop(current)
        route = list(packet.source_route) if packet.source_route else None
        route_index = 0
        if route:
            # Source route must begin at (or after) the start node.
            route_index = decision.route_start_index(route[0], start)

        for _ in range(MAX_TTL):
            verdict_result = self._apply_middleboxes(packet, current)
            if verdict_result is not None:
                action, new_packet, new_destination, box_name, disclosed = verdict_result
                if action is Action.DROP:
                    diag = self._diagnose_drop(path, box_name, disclosed)
                    return DeliveryReceipt(
                        packet=packet,
                        status=DeliveryStatus.DROPPED_BY_MIDDLEBOX,
                        path=path,
                        latency=latency,
                        interfering_node=current,
                        diagnostic=diag,
                    )
                if action is Action.REDIRECT and new_destination is not None:
                    if new_destination == current:
                        # Served locally (e.g. cache hit).
                        return DeliveryReceipt(
                            packet=new_packet or packet,
                            status=DeliveryStatus.REDIRECTED,
                            path=path,
                            latency=latency,
                            delivered_to=current,
                            interfering_node=current,
                            diagnostic=f"served at {current}" if disclosed else "",
                        )
                    packet = self._retarget(new_packet or packet, new_destination)

            destination = packet.header.dst
            if decision.at_destination(current, destination):
                return DeliveryReceipt(
                    packet=packet,
                    status=DeliveryStatus.DELIVERED,
                    path=path,
                    latency=latency,
                    delivered_to=current,
                )

            next_hop = self._next_hop(packet, current, route, route_index)
            if next_hop is None:
                return DeliveryReceipt(
                    packet=packet,
                    status=DeliveryStatus.NO_ROUTE,
                    path=path,
                    latency=latency,
                    diagnostic=f"no route to {destination!r} at {current!r}",
                )
            if next_hop == "<refused>":
                return DeliveryReceipt(
                    packet=packet,
                    status=DeliveryStatus.SOURCE_ROUTE_REFUSED,
                    path=path,
                    latency=latency,
                    interfering_node=current,
                    diagnostic=f"{current!r} refuses source-routed traffic",
                )
            exists = self.network.has_link(current, next_hop)
            link = self.network.link(current, next_hop) if exists else None
            if not decision.link_usable(
                exists,
                link.up if link is not None else False,
                link.capacity if link is not None else 0.0,
            ):
                if link is not None and link.up:
                    diag = f"link {current!r}-{next_hop!r} has no capacity"
                else:
                    diag = f"link {current!r}-{next_hop!r} is down"
                return DeliveryReceipt(
                    packet=packet,
                    status=DeliveryStatus.LINK_DOWN,
                    path=path,
                    latency=latency,
                    diagnostic=diag,
                )
            latency += self.network.link(current, next_hop).latency
            current = next_hop
            if route is not None and route_index < len(route) and route[route_index] == current:
                route_index += 1
            path.append(current)
            packet.record_hop(current)

        return DeliveryReceipt(
            packet=packet,
            status=DeliveryStatus.TTL_EXCEEDED,
            path=path,
            latency=latency,
            diagnostic=f"TTL exceeded after {MAX_TTL} hops (routing loop?)",
        )

    def _apply_middleboxes(
        self, packet: Packet, node: str
    ) -> Optional[Tuple[Action, Optional[Packet], Optional[str], str, bool]]:
        """Run every middlebox at ``node``; first non-FORWARD verdict wins."""
        for box in self.middleboxes.get(node, ()):
            verdict = box.process(packet)
            self.ledger.record(box.name, verdict.action, verdict.disclosed)
            if verdict.action is not Action.FORWARD:
                return (verdict.action, verdict.packet, verdict.new_destination,
                        box.name, verdict.disclosed)
        return None

    def _retarget(self, packet: Packet, new_destination: str) -> Packet:
        from dataclasses import replace
        new_header = replace(packet.header, dst=new_destination)
        packet.header = new_header
        packet.source_route = None
        return packet

    def _next_hop(
        self,
        packet: Packet,
        current: str,
        route: Optional[List[str]],
        route_index: int,
    ) -> Optional[str]:
        route_hop = None
        if route is not None and route_index < len(route):
            route_hop = route[route_index]
        table_hop = self.tables.get(current, {}).get(packet.header.dst)
        hop, refused = decision.next_hop_choice(
            table_hop, route_hop, self.honor_source_routes)
        if refused:
            return "<refused>"
        return hop

    def _diagnose_drop(self, path: List[str], box_name: str, disclosed: bool) -> str:
        """Produce the fault report an end user would see.

        Disclosed interference names the device; silent interference only
        reveals where the trace stops — "some devices that impair
        transparency may intentionally give no error information" (§VI-A).
        """
        if disclosed:
            return f"blocked by {box_name!r} at hop {len(path) - 1} ({path[-1]!r})"
        return f"trace stops after {path[-1]!r}; cause unknown"

    # ------------------------------------------------------------------
    # Aggregate measurements
    # ------------------------------------------------------------------
    def delivery_rate(self) -> float:
        """Fraction of sent packets that reached a destination."""
        if not self.receipts:
            return 0.0
        return sum(1 for r in self.receipts if r.delivered) / len(self.receipts)

    def reset_stats(self) -> None:
        self.receipts.clear()
        self.ledger = TransparencyLedger()
