"""CAIDA-style AS-relationship loader.

Real AS graphs ship as CAIDA *as-rel* files: one ``provider|customer|-1``
or ``peer|peer|0`` triple per line, ``#`` comments.  This module parses
that format into the same :class:`~tussle.netsim.topology.Network`
business graph the generator emits, so experiments and the fast path
run unchanged on measured topologies.

Tier inference (CAIDA files carry no tiers): an AS with no providers
and at least one customer is tier 1 (transit-free core); an AS with
both providers and customers is tier 2; everything else — pure stubs
and relationship-less islands — is tier 3.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

from ..errors import TopogenError
from ..netsim.topology import Network, Relationship

__all__ = ["parse_caida", "load_caida", "infer_tiers"]

#: CAIDA relationship codes.
_PROVIDER_CUSTOMER = -1
_PEER_PEER = 0


def parse_caida(lines: Iterable[str]) -> Network:
    """Build a network from CAIDA as-rel lines.

    ``a|b|-1`` records ``a`` as the *provider* of ``b`` (CAIDA's p2c
    orientation); ``a|b|0`` records a peering.  Duplicate triples are
    tolerated; conflicting triples for the same pair raise.
    """
    net = Network()
    seen = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            raise TopogenError(
                f"line {lineno}: expected 'a|b|rel', got {line!r}")
        try:
            a, b, rel = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise TopogenError(
                f"line {lineno}: non-integer field in {line!r}") from None
        if a == b:
            raise TopogenError(f"line {lineno}: self-relationship for AS {a}")
        if rel not in (_PROVIDER_CUSTOMER, _PEER_PEER):
            raise TopogenError(
                f"line {lineno}: unknown relationship code {rel} "
                f"(expected -1 provider-customer or 0 peer-peer)")
        for asn in (a, b):
            if not net.has_as(asn):
                net.add_as(asn)
        # Normalize to a direction-stable key: p2c keeps (provider,
        # customer) order, peering sorts the pair.
        if rel == _PROVIDER_CUSTOMER:
            key, kind = (a, b), "p2c"
        else:
            key, kind = (min(a, b), max(a, b)), "p2p"
        previous = seen.get((min(a, b), max(a, b)))
        if previous is not None:
            if previous == (key, kind):
                continue
            raise TopogenError(
                f"line {lineno}: conflicting relationship for "
                f"AS{a}-AS{b} ({previous[1]} vs {kind})")
        seen[(min(a, b), max(a, b))] = (key, kind)
        if kind == "p2c":
            # add_as_relationship names the customer first.
            net.add_as_relationship(b, a, Relationship.CUSTOMER_PROVIDER)
        else:
            net.add_as_relationship(a, b, Relationship.PEER_PEER)
    infer_tiers(net)
    return net


def load_caida(path: Union[str, Path]) -> Network:
    """Parse a CAIDA as-rel file from disk."""
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise TopogenError(f"cannot read {source}: {exc}") from exc
    return parse_caida(text.splitlines())


def infer_tiers(network: Network) -> None:
    """Assign tiers in place from the relationship structure."""
    for autonomous in network.ases:
        providers = network.providers_of(autonomous.asn)
        customers = network.customers_of(autonomous.asn)
        if not providers and customers:
            autonomous.tier = 1
        elif providers and customers:
            autonomous.tier = 2
        else:
            autonomous.tier = 3
