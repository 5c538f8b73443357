"""Inter-domain routing policies (Gao–Rexford and variants).

BGP "has a different character than a protocol such as OSPF... The routing
arrangements among ISPs are generally not public" (§IV-C). Policy is where
the provider's business interests enter the protocol: which routes to
prefer (local preference) and which to tell the neighbours about (export
rules).

:class:`GaoRexfordPolicy` implements the canonical economically-stable
policy: prefer customer routes over peer routes over provider routes, and
only export customer routes to peers/providers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Tuple

from ..netsim.topology import Network
from .base import Route

__all__ = ["NeighborClass", "RoutingPolicy", "GaoRexfordPolicy",
           "is_valley_free"]


class NeighborClass(IntEnum):
    """How a neighbour relates to us, ordered by route preference.

    Lower value = more preferred: customers pay us, so routes through them
    earn money; providers cost us, so routes through them cost money.
    """

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2
    UNKNOWN = 3


def classify_neighbor(network: Network, me: int, neighbor: int) -> NeighborClass:
    """Classify ``neighbor`` from ``me``'s business point of view."""
    if network.is_provider_of(me, neighbor):
        return NeighborClass.CUSTOMER
    if network.is_provider_of(neighbor, me):
        return NeighborClass.PROVIDER
    if neighbor in network.peers_of(me):
        return NeighborClass.PEER
    return NeighborClass.UNKNOWN


class RoutingPolicy:
    """Interface: preference ranking and export control for one AS."""

    def prefer(self, network: Network, me: int, a: Route, b: Route) -> Route:
        """Return the preferred of two candidate routes to the same dest."""
        raise NotImplementedError  # pragma: no cover - abstract

    def may_export(self, network: Network, me: int, route: Route, to_neighbor: int) -> bool:
        """May ``me`` announce ``route`` to ``to_neighbor``?"""
        raise NotImplementedError  # pragma: no cover - abstract


@dataclass
class GaoRexfordPolicy(RoutingPolicy):
    """The canonical provider-interest policy.

    Preference is a documented *total* order: customer > peer > provider
    (local-pref), then shorter AS path, then lower next-hop ASN, then
    lexicographically smaller AS path.  The final key makes route
    selection independent of candidate arrival order — without it, two
    routes through the same next hop but different tails would tie and
    the incumbent would win, leaking iteration order into the RIB.

    Export ("valley-free" rule): routes learned from a customer may be
    announced to everyone; routes learned from a peer or provider may be
    announced only to customers. An AS never carries traffic between two
    of its providers/peers for free.
    """

    def _rank(self, network: Network, me: int,
              route: Route) -> Tuple[int, int, int, Tuple[int, ...]]:
        if route.length == 0:
            neighbor_class = NeighborClass.CUSTOMER  # own prefix, best
        else:
            neighbor_class = classify_neighbor(network, me, route.next_hop)
        return (int(neighbor_class), route.length, route.next_hop, route.path)

    def prefer(self, network: Network, me: int, a: Route, b: Route) -> Route:
        return min((a, b), key=lambda r: self._rank(network, me, r))

    def may_export(self, network: Network, me: int, route: Route, to_neighbor: int) -> bool:
        to_class = classify_neighbor(network, me, to_neighbor)
        if to_class is NeighborClass.CUSTOMER:
            return True
        if route.length == 0:
            return True  # always announce your own prefix
        learned_from = classify_neighbor(network, me, route.next_hop)
        return learned_from is NeighborClass.CUSTOMER


def is_valley_free(network: Network, path: Tuple[int, ...]) -> bool:
    """Does an AS path obey the Gao-Rexford export rules?

    Read from the selecting AS toward the destination, a valley-free
    path climbs customer->provider edges zero or more times, crosses at
    most one peer edge, then descends provider->customer edges — i.e.
    once it stops climbing it never climbs again, and it never crosses
    a second peering.  Paths with unrelated consecutive ASes are not
    valley-free (no relationship = no announcement).
    """
    if path is None or len(path) == 0:
        return False
    descending = False
    peered = False
    for a, b in zip(path, path[1:]):
        step = classify_neighbor(network, a, b)
        if step is NeighborClass.UNKNOWN:
            return False
        if step is NeighborClass.PROVIDER:  # climbing up
            if descending or peered:
                return False
        elif step is NeighborClass.PEER:  # one lateral hop
            if descending or peered:
                return False
            peered = True
        else:  # CUSTOMER: descending
            descending = True
    return True
