"""The pure per-packet / per-link decision rules shared by every
forwarding backend.

:class:`~tussle.netsim.forwarding.ForwardingEngine` (the scalar
reference) and :class:`~tussle.scale.vforwarding.VectorForwardingEngine`
(the NumPy backend) must make *identical* choices — the ``netsim`` pair
of the parity harness in :mod:`tussle.scale.parity` asserts their round
records match byte for byte.  As with :mod:`tussle.econ.decision`, that is only
tractable if every decision lives in one place, as pure functions of
plain values with a documented operation order.  The vectorized kernels
in :mod:`tussle.scale.nkernels` mirror these functions element-wise; any
change here must be reflected there (and the parity gate will catch a
mismatch).

Contract notes (load-bearing for byte-parity):

* A hop is attempted only after the delivered check: a packet already at
  its destination never consumes a forwarding-table lookup, so
  :func:`at_destination` is evaluated before :func:`next_hop_choice`
  every round.
* A link is usable iff it exists, is operationally up, *and* has
  positive capacity — a zero-capacity link is indistinguishable from a
  down link to a packet (:func:`link_usable`).  Self-loops never exist
  (the topology layer rejects them), so a table or source route naming
  the current node resolves to link-down, not delivery.
* Source routes take precedence over tables while the route has hops
  left; an engine configured not to honor them refuses rather than
  silently falling back to its table (:func:`next_hop_choice`).
* Longest-prefix FIB lookup is insertion-order independent: two distinct
  equal-length prefixes cannot both match one name, and duplicate
  prefixes are deduplicated (last insert wins) before lookup, so
  :func:`longest_prefix_match` sees each prefix once.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

__all__ = [
    "MAX_TTL",
    "at_destination",
    "link_usable",
    "longest_prefix_match",
    "next_hop_choice",
    "port_prioritized",
    "priority_charge",
    "route_start_index",
    "tos_prioritized",
]

#: Safety bound on path length to catch routing loops.  A packet makes at
#: most ``MAX_TTL`` forwarding decisions; delivery is therefore only
#: possible within ``MAX_TTL - 1`` hops of the source.
MAX_TTL = 64


def at_destination(current: str, destination: str) -> bool:
    """Has the packet arrived?  Checked before any hop is attempted."""
    return current == destination


def route_start_index(route_first: Optional[str], start: str) -> int:
    """Where forwarding starts consuming a source route.

    A route that names the start node begins at index 1 (the start hop is
    already satisfied); otherwise the whole route remains to be walked.
    """
    return 1 if route_first == start else 0


def next_hop_choice(
    table_hop: Optional[str],
    route_hop: Optional[str],
    honor_source_routes: bool,
) -> Tuple[Optional[str], bool]:
    """Pick the next hop: ``(hop, refused)``.

    An unexhausted source route (``route_hop`` is not None) wins over the
    forwarding table; a forwarder configured against source routes
    refuses such packets outright ("service providers do not like loose
    source routes", §V-A-4) rather than falling back to its table.  With
    no route in play the table answers, and ``(None, False)`` means no
    route exists at all.
    """
    if route_hop is not None:
        if not honor_source_routes:
            return None, True
        return route_hop, False
    return table_hop, False


def link_usable(exists: bool, up: bool, capacity: float) -> bool:
    """May a packet cross this link right now?

    Nonexistent, administratively down, and zero-capacity links are all
    equally unusable — a link that can carry no bits is down as far as
    any packet is concerned.
    """
    return exists and up and capacity > 0


def longest_prefix_match(
    entries: Iterable[Tuple[str, str]],
    name: str,
) -> Optional[str]:
    """Longest-prefix winner over ``(prefix, next_hop)`` entries.

    Strictly longer matches displace shorter ones; an equal-length match
    replaces an earlier one (last wins), which only matters when the
    caller feeds duplicate prefixes — deduplicated tables make the result
    independent of entry order, since distinct equal-length prefixes
    cannot both match the same name.
    """
    best_hop: Optional[str] = None
    best_length = -1
    for prefix, hop in entries:
        if name.startswith(prefix) and len(prefix) >= best_length:
            best_hop = hop
            best_length = len(prefix)
    return best_hop


def tos_prioritized(tos: int, threshold: int) -> bool:
    """The paper's QoS binding: priority from explicit ToS bits alone."""
    return tos >= threshold


def port_prioritized(
    observed_application: Optional[str],
    priority_applications: Iterable[str],
) -> bool:
    """The entangled QoS binding: priority from the observable app."""
    return (observed_application is not None
            and observed_application in priority_applications)


def priority_charge(prioritized: bool, bill_per_packet: float) -> float:
    """Revenue one packet generates under per-packet priority billing."""
    if prioritized and bill_per_packet > 0:
        return bill_per_packet
    return 0.0
