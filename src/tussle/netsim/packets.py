"""Packets, headers, encryption and tunnels.

The packet model is deliberately richer than a toy simulator's, because the
paper's tussles hinge on *what intermediate nodes can see*:

* "Peeking is irresistible. If there is information visible in the packet,
  there is no way to keep an intermediate node from looking at it" (§VI-A).
  Packets therefore distinguish visible headers from payloads, and payloads
  can be **encrypted** so middleboxes cannot classify on them.
* Users "route and tunnel around" firewalls and value pricing (§I, §V-A-2).
  Packets support **encapsulation**: a tunnelled packet shows only the
  tunnel's outer header (e.g. port 443) to observers on the path.
* IP QoS uses "explicit ToS bits to select QoS, rather than binding this
  decision to another property such as a well-known port number" (§IV-A) —
  the header carries an explicit ``tos`` field for exactly that reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional

from ..errors import SimulationError

__all__ = ["Protocol", "Header", "Packet", "WELL_KNOWN_PORTS", "port_for_app"]

_packet_ids = itertools.count(1)

#: Well-known ports for the applications the paper discusses.
WELL_KNOWN_PORTS: Dict[str, int] = {
    "http": 80,
    "https": 443,
    "smtp": 25,
    "pop": 110,
    "dns": 53,
    "voip": 5060,
    "p2p": 6881,
    "vpn": 1194,
    "nntp": 119,
    "game-server": 27015,
    "web-server": 8080,
}


def port_for_app(application: str) -> int:
    """Map an application name to its well-known port (default 40000+hash)."""
    if application in WELL_KNOWN_PORTS:
        return WELL_KNOWN_PORTS[application]
    return 40000 + (hash(application) % 10000)


class Protocol(Enum):
    """Transport protocol carried by a packet."""

    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"


@dataclass(frozen=True)
class Header:
    """The always-visible portion of a packet.

    Middleboxes may inspect every field here. ``tos`` is the explicit
    type-of-service request; ``application`` is the *true* application, which
    is only observable when the payload is not encrypted (see
    :meth:`Packet.observable_application`).
    """

    src: str
    dst: str
    src_port: int = 0
    dst_port: int = 0
    protocol: Protocol = Protocol.TCP
    tos: int = 0

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 <= port <= 65535:
                raise SimulationError(f"port {port} out of range")
        if not 0 <= self.tos <= 255:
            raise SimulationError(f"tos {self.tos} out of range")


@dataclass
class Packet:
    """A simulated packet.

    Attributes
    ----------
    header:
        Visible header fields.
    application:
        The application that generated the packet (semantic ground truth,
        used to evaluate classification accuracy of middleboxes).
    encrypted:
        When True, payload-derived information (including the true
        application) is opaque to observers.
    source_route:
        Optional explicit node path requested by the sender (the paper's
        provider-level source routing, §V-A-4). Forwarders honouring source
        routes follow it; others ignore or reject it.
    covert_cover:
        When set, the payload is steganographically hidden inside traffic
        of the named cover application — "the hiding of information
        inside some other form of data. It is a signal of a coming tussle
        that this topic is receiving attention right now" (§VI-A, fn 17).
        Observers classify the packet as the cover application and cannot
        tell it is covert (unlike encryption, which is itself visible).
    encapsulation:
        Stack of outer headers, innermost last. A tunnelled packet exposes
        only ``encapsulation[0]`` on the wire.
    size:
        Bytes, for capacity accounting.
    """

    header: Header
    application: str = "generic"
    payload: object = None
    encrypted: bool = False
    source_route: Optional[List[str]] = None
    covert_cover: Optional[str] = None
    encapsulation: List[Header] = field(default_factory=list)
    size: int = 1000
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    hops: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Observation semantics (what can a middlebox see?)
    # ------------------------------------------------------------------
    @property
    def wire_header(self) -> Header:
        """The outermost header — the only one visible on the wire."""
        if self.encapsulation:
            return self.encapsulation[0]
        return self.header

    def observable_application(self) -> Optional[str]:
        """The application an on-path observer can infer, or ``None``.

        Observers classify by the wire header's port. If the packet is
        tunnelled, they see the *tunnel's* application; a covert packet
        classifies as its cover application; if the payload is encrypted
        and the port is unregistered, they learn nothing.
        """
        if self.covert_cover is not None:
            return self.covert_cover
        wire = self.wire_header
        for app, port in WELL_KNOWN_PORTS.items():
            if wire.dst_port == port:
                return app
        if self.encapsulation or self.encrypted:
            return None
        return self.application

    def observable_tos(self) -> int:
        """The ToS bits visible on the wire (outer header when tunnelled)."""
        return self.wire_header.tos

    # ------------------------------------------------------------------
    # Tunnels
    # ------------------------------------------------------------------
    def encapsulate(self, outer: Header) -> "Packet":
        """Return a copy wrapped in an additional outer header.

        Innermost original header is preserved; observers now see ``outer``.
        """
        pkt = replace(self)
        pkt.encapsulation = [outer] + list(self.encapsulation)
        pkt.hops = list(self.hops)
        return pkt

    def decapsulate(self) -> "Packet":
        """Strip the outermost tunnel header."""
        if not self.encapsulation:
            raise SimulationError("packet is not encapsulated")
        pkt = replace(self)
        pkt.encapsulation = list(self.encapsulation)[1:]
        pkt.hops = list(self.hops)
        return pkt

    @property
    def tunnelled(self) -> bool:
        return bool(self.encapsulation)

    def hide_in(self, cover_application: str) -> "Packet":
        """Return a copy steganographically hidden inside cover traffic.

        The copy's wire header carries the cover application's well-known
        port; observers classify it as the cover and — crucially, unlike
        encryption — see nothing marking it as protected at all, so even
        a block-everything-encrypted policy passes it.
        """
        outer = Header(
            src=self.header.src,
            dst=self.header.dst,
            src_port=self.header.src_port,
            dst_port=port_for_app(cover_application),
            protocol=self.header.protocol,
            tos=self.header.tos,
        )
        hidden = replace(self, header=outer)
        hidden.covert_cover = cover_application
        hidden.encrypted = False  # nothing visibly protected
        hidden.hops = list(self.hops)
        hidden.encapsulation = list(self.encapsulation)
        return hidden

    def tunnel_to(self, gateway: str, application: str = "vpn",
                  encrypt: bool = True) -> "Packet":
        """Convenience: wrap this packet in a tunnel toward ``gateway``.

        This is the counter-move the paper describes consumers making
        against value pricing and firewalls: "tunneling to disguise the
        port numbers being used" (§V-A-2).
        """
        outer = Header(
            src=self.header.src,
            dst=gateway,
            src_port=port_for_app(application),
            dst_port=port_for_app(application),
            protocol=self.header.protocol,
            tos=self.header.tos,
        )
        pkt = self.encapsulate(outer)
        if encrypt:
            pkt.encrypted = True
        return pkt

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def record_hop(self, node: str) -> None:
        self.hops.append(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        wire = self.wire_header
        extras = []
        if self.encrypted:
            extras.append("enc")
        if self.tunnelled:
            extras.append(f"tun×{len(self.encapsulation)}")
        suffix = (" " + ",".join(extras)) if extras else ""
        return (f"<Packet#{self.packet_id} {wire.src}->{wire.dst}"
                f":{wire.dst_port} app={self.application}{suffix}>")


def make_packet(
    src: str,
    dst: str,
    application: str = "generic",
    *,
    tos: int = 0,
    protocol: Protocol = Protocol.TCP,
    encrypted: bool = False,
    size: int = 1000,
    source_route: Optional[List[str]] = None,
) -> Packet:
    """Build a packet with the application's well-known destination port."""
    header = Header(
        src=src,
        dst=dst,
        src_port=40000 + (next(_packet_ids) % 20000),
        dst_port=port_for_app(application),
        protocol=protocol,
        tos=tos,
    )
    return Packet(
        header=header,
        application=application,
        encrypted=encrypted,
        size=size,
        source_route=list(source_route) if source_route else None,
    )


__all__.append("make_packet")
