"""Middleboxes: firewalls, redirectors and wiretaps.

Middleboxes are the concrete mechanisms through which several of the
paper's tussles play out:

* firewalls turn the network from "that which is not forbidden is
  permitted" into "that which is not permitted is forbidden" (§V-B);
* ISPs redirect connections to control which SMTP server a customer uses
  (§IV-B footnote);
* wiretaps are the third-party observation the paper lists among the
  transparency-eroding mechanisms (§VI-A);
* each middlebox can *disclose* its interference or stay silent — the
  paper argues devices should "reveal if they impose limitations", while
  noting this can only be a courtesy (§V-B).

Every middlebox implements :meth:`Middlebox.process` returning a
:class:`Verdict`; the forwarding engine applies verdicts on the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from .packets import Packet

__all__ = [
    "Action",
    "Verdict",
    "Middlebox",
    "PortFilterFirewall",
    "BlanketFirewall",
    "Redirector",
    "Wiretap",
    "TransparencyLedger",
]


class Action(Enum):
    """What a middlebox decided to do with a packet."""

    FORWARD = "forward"
    DROP = "drop"
    REDIRECT = "redirect"
    MODIFY = "modify"


@dataclass
class Verdict:
    """Outcome of middlebox processing.

    ``packet`` carries the (possibly modified) packet for FORWARD/MODIFY/
    REDIRECT; ``new_destination`` is set for REDIRECT; ``disclosed`` records
    whether the middlebox announced its interference (the paper's visibility
    requirement).
    """

    action: Action
    packet: Optional[Packet] = None
    new_destination: Optional[str] = None
    reason: str = ""
    disclosed: bool = False


class Middlebox:
    """Base class for all middleboxes.

    Subclasses override :meth:`process`. The base class accumulates
    statistics so experiments can measure interference rates.

    Parameters
    ----------
    name:
        Identifier (usually the topology node it sits on).
    discloses:
        Whether verdicts other than FORWARD are announced to endpoints.
        The paper: "One way to help preserve the end-to-end character of
        the Internet is to require that devices reveal if they impose
        limitations on it. However, there is no obvious way to enforce
        this requirement, so it becomes a courtesy."
    """

    def __init__(self, name: str, discloses: bool = True):
        self.name = name
        self.discloses = discloses
        self.stats: Dict[Action, int] = {a: 0 for a in Action}
        self.log: List[Tuple[int, Action, str]] = []

    def process(self, packet: Packet) -> Verdict:  # pragma: no cover - abstract
        raise NotImplementedError

    def _record(self, packet: Packet, verdict: Verdict) -> Verdict:
        self.stats[verdict.action] += 1
        self.log.append((packet.packet_id, verdict.action, verdict.reason))
        verdict.disclosed = self.discloses and verdict.action is not Action.FORWARD
        return verdict

    def interference_rate(self) -> float:
        """Fraction of processed packets not simply forwarded."""
        total = sum(self.stats.values())
        if total == 0:
            return 0.0
        return 1.0 - self.stats[Action.FORWARD] / total


class PortFilterFirewall(Middlebox):
    """A conventional firewall filtering on visible ports/applications.

    Crucially it classifies using :meth:`Packet.observable_application` —
    so tunnelled or encrypted traffic on an innocuous port *evades* it.
    That is the evasion dynamic of §V-A-2 (value pricing vs tunnels).

    Parameters
    ----------
    blocked_applications:
        Applications (by observable classification) to drop.
    blocked_ports:
        Destination ports to drop regardless of classification.
    """

    def __init__(
        self,
        name: str,
        blocked_applications: Optional[Set[str]] = None,
        blocked_ports: Optional[Set[int]] = None,
        discloses: bool = True,
    ):
        super().__init__(name, discloses=discloses)
        self.blocked_applications = set(blocked_applications or ())
        self.blocked_ports = set(blocked_ports or ())

    def process(self, packet: Packet) -> Verdict:
        wire = packet.wire_header
        if wire.dst_port in self.blocked_ports:
            return self._record(packet, Verdict(Action.DROP, reason=f"port {wire.dst_port} blocked"))
        observed = packet.observable_application()
        if observed is not None and observed in self.blocked_applications:
            return self._record(packet, Verdict(Action.DROP, reason=f"app {observed} blocked"))
        return self._record(packet, Verdict(Action.FORWARD, packet=packet))


class BlanketFirewall(Middlebox):
    """"That which is not permitted is forbidden" (§V-B).

    Only an explicit allow-list of applications passes; anything
    unclassifiable (new applications, encrypted flows) is dropped. This is
    the design whose innovation cost experiment E05 measures.
    """

    def __init__(self, name: str, allowed_applications: Set[str], discloses: bool = True):
        super().__init__(name, discloses=discloses)
        self.allowed_applications = set(allowed_applications)

    def process(self, packet: Packet) -> Verdict:
        observed = packet.observable_application()
        if observed is not None and observed in self.allowed_applications:
            return self._record(packet, Verdict(Action.FORWARD, packet=packet))
        return self._record(
            packet,
            Verdict(Action.DROP, reason=f"not on allow-list (observed={observed})"),
        )


class Redirector(Middlebox):
    """Rewrites destinations matching a rule — the ISP's SMTP-capture move.

    "An ISP might try to control what SMTP server a customer uses by
    redirecting packets based on the port number" (§IV-B).
    """

    def __init__(
        self,
        name: str,
        port: int,
        new_destination: str,
        discloses: bool = False,
    ):
        super().__init__(name, discloses=discloses)
        self.port = port
        self.new_destination = new_destination

    def process(self, packet: Packet) -> Verdict:
        wire = packet.wire_header
        if wire.dst_port == self.port and wire.dst != self.new_destination:
            return self._record(
                packet,
                Verdict(
                    Action.REDIRECT,
                    packet=packet,
                    new_destination=self.new_destination,
                    reason=f"port {self.port} redirected to {self.new_destination}",
                ),
            )
        return self._record(packet, Verdict(Action.FORWARD, packet=packet))


class Wiretap(Middlebox):
    """Passively records what it can observe of passing traffic.

    Models "the desire of third parties to observe a data flow (e.g.,
    wiretap)" (§VI-A). Encrypted payloads yield only wire-header metadata —
    the quantitative basis for E11's escalation game.
    """

    def __init__(self, name: str):
        super().__init__(name, discloses=False)
        self.observations: List[Dict[str, object]] = []

    def process(self, packet: Packet) -> Verdict:
        wire = packet.wire_header
        self.observations.append(
            {
                "src": wire.src,
                "dst": wire.dst,
                "dst_port": wire.dst_port,
                "application": packet.observable_application(),
                "content_visible": (not packet.encrypted
                                    and not packet.tunnelled
                                    and packet.covert_cover is None),
            }
        )
        return self._record(packet, Verdict(Action.FORWARD, packet=packet))

    def content_visibility_rate(self) -> float:
        """Fraction of observed packets whose content was readable."""
        if not self.observations:
            return 0.0
        visible = sum(1 for o in self.observations if o["content_visible"])
        return visible / len(self.observations)


class TransparencyLedger:
    """Aggregates disclosure behaviour across a deployment of middleboxes.

    The paper's diagnostic-tools discussion (§VI-A "Failures of
    transparency will occur — design what happens then") needs a measure of
    how much interference was *announced* versus silent; this ledger
    provides it.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, Action, bool]] = []

    def record(self, middlebox: str, action: Action, disclosed: bool) -> None:
        if action is Action.FORWARD:
            return
        self.records.append((middlebox, action, disclosed))

    def disclosure_rate(self) -> float:
        """Fraction of interfering actions that were disclosed."""
        if not self.records:
            return 1.0
        return sum(1 for _, __, d in self.records if d) / len(self.records)

    def silent_interferers(self) -> Set[str]:
        return {m for m, _, d in self.records if not d}
