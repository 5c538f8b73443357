"""Network topology: nodes, links, and autonomous systems.

The topology layer models the Internet at two granularities used throughout
the paper's tussle spaces:

* **node level** — hosts, routers and middleboxes joined by links with
  latency/capacity, used by the packet forwarding substrate; and
* **AS level** — autonomous systems joined by *business relationships*
  (customer–provider or peer–peer, after Gao–Rexford), used by the
  inter-domain routing and economics substrates.

Both levels live in one :class:`Network` object so experiments can relate
business structure to forwarding behaviour (e.g. E04: who controls routes).
The AS level is also readable as arrays: :meth:`Network.relation_index`
returns the business graph as sorted row arrays (:class:`RelationIndex`),
which the array routing, volume and bargaining layers read instead of
walking the per-AS sets.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

import numpy as np

from ..errors import ScaleError, TopologyError

__all__ = [
    "NodeKind",
    "Relationship",
    "Node",
    "Link",
    "ASNode",
    "ASIndex",
    "RelationIndex",
    "isin_sorted",
    "Network",
    "line_topology",
    "star_topology",
    "dumbbell_topology",
    "random_as_graph",
    "multihomed_topology",
]


class NodeKind(Enum):
    """Role a node plays in the network."""

    HOST = "host"
    ROUTER = "router"
    MIDDLEBOX = "middlebox"
    SERVER = "server"


class Relationship(Enum):
    """Business relationship between two ASes, after Gao–Rexford.

    ``CUSTOMER_PROVIDER`` is directional: the *first* AS named in
    :meth:`Network.add_as_relationship` is the customer.
    """

    CUSTOMER_PROVIDER = "customer-provider"
    PEER_PEER = "peer-peer"
    SIBLING = "sibling"


@dataclass
class Node:
    """A network element (host, router, server or middlebox).

    Attributes
    ----------
    name:
        Globally unique identifier within the :class:`Network`.
    kind:
        Functional role; forwarding treats middleboxes specially.
    asn:
        Autonomous-system number this node belongs to, or ``None`` for
        AS-less test topologies.
    """

    name: str
    kind: NodeKind = NodeKind.HOST
    asn: Optional[int] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.name == self.name


@dataclass
class Link:
    """A bidirectional link between two nodes.

    Attributes
    ----------
    latency:
        One-way propagation delay in seconds.
    capacity:
        Bits per second; ``float('inf')`` means uncongested.
    cost:
        Administrative routing metric (used by link-state routing).
    up:
        Operational state; failed links do not forward.
    """

    a: str
    b: str
    latency: float = 0.01
    capacity: float = float("inf")
    cost: float = 1.0
    up: bool = True
    metadata: Dict[str, object] = field(default_factory=dict)

    def endpoints(self) -> Tuple[str, str]:
        return (self.a, self.b)

    def other(self, name: str) -> str:
        """The endpoint that is not ``name``."""
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise TopologyError(f"node {name!r} is not an endpoint of {self.a}-{self.b}")

    def key(self) -> Tuple[str, str]:
        """Canonical unordered key for the link."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


@dataclass
class ASNode:
    """An autonomous system in the business-level graph."""

    asn: int
    name: str = ""
    tier: int = 3
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"AS{self.asn}"


class ASIndex:
    """Bidirectional ASN <-> row mapping, rows sorted by ASN."""

    def __init__(self, asns: Sequence[int]):
        self.asns = np.array(sorted(asns), dtype=np.int64)
        if (np.diff(self.asns) == 0).any():
            raise ScaleError("AS numbers must be unique")
        self._row: Dict[int, int] = {int(a): i
                                     for i, a in enumerate(self.asns)}

    @classmethod
    def from_network(cls, network: "Network") -> "ASIndex":
        return network.relation_index().index

    def __len__(self) -> int:
        return int(self.asns.shape[0])

    def of(self, asn: int) -> int:
        try:
            return self._row[asn]
        except KeyError:
            raise ScaleError(f"unknown AS {asn}") from None

    def rows_of(self, asn_values: np.ndarray) -> np.ndarray:
        """Vectorized ASN -> row (values must all be indexed)."""
        return np.searchsorted(self.asns, asn_values)


def isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(values, table)`` for an ascending ``table``, by binary search.

    numpy 2's ``isin`` first deduplicates both arrays through a hash
    table, which on the few thousand edge keys of a 10^3-AS internet
    takes tens of times longer than this search.
    """
    if not table.size:
        return np.zeros(values.shape, dtype=bool)
    return table[np.minimum(np.searchsorted(table, values),
                            table.size - 1)] == values


def _edge_rows(index: ASIndex,
               table: Dict[int, FrozenSet[int]]) -> Tuple[np.ndarray, ...]:
    """``table`` (ASN -> neighbour ASNs) as ``(row, neighbour row)`` arrays,
    sorted by row, then neighbour row, and read-only."""
    counts = np.fromiter(map(len, table.values()), dtype=np.int64,
                         count=len(table))
    owners = np.repeat(np.fromiter(table, dtype=np.int64, count=len(table)),
                       counts)
    neighbours = np.fromiter(itertools.chain.from_iterable(table.values()),
                             dtype=np.int64, count=int(counts.sum()))
    n = len(index)
    keys = np.sort(index.rows_of(owners) * n + index.rows_of(neighbours))
    rows = np.divmod(keys, max(n, 1))
    for array in rows:
        array.flags.writeable = False
    return rows


class RelationIndex:
    """A :class:`Network`'s business graph as row arrays, at one version.

    Rows follow ``index`` (ascending ASN).  Each relationship kind is a
    pair of row arrays in CSR order, sorted by the row that owns the
    edge, then by the neighbour's row, so each row's edges are one
    ascending run:

    * ``customer``/``provider``: every customer/provider edge;
    * ``peer_dst``/``peer_src``: every peering, once in each direction
      (``peer_src`` announces to ``peer_dst``);
    * ``sibling_dst``/``sibling_src``: every sibling link, likewise.

    ``pays_transit[row]`` says whether the AS has a provider.  The
    arrays are read-only.  ``version`` and ``hierarchy_version`` are the
    network's counts of AS and relationship changes, and of AS and
    customer/provider changes, when the index was built: an index
    rebuilt after peer or sibling changes alone shares ``index``,
    ``customer``, ``provider`` and ``pays_transit`` with the one before.
    """

    def __init__(self, version: int, hierarchy_version: int,
                 index: ASIndex, customer: np.ndarray, provider: np.ndarray,
                 pays_transit: np.ndarray, peers: Tuple[np.ndarray, ...],
                 siblings: Tuple[np.ndarray, ...]):
        self.version = version
        self.hierarchy_version = hierarchy_version
        self.index = index
        self.customer = customer
        self.provider = provider
        self.pays_transit = pays_transit
        self.peer_dst, self.peer_src = peers
        self.sibling_dst, self.sibling_src = siblings

    def peer_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every peering once, as ``(low row, high row)`` arrays in
        ascending order."""
        once = self.peer_dst < self.peer_src
        return self.peer_dst[once], self.peer_src[once]

    def related_keys(self) -> np.ndarray:
        """``low * n + high`` for every related row pair ``low < high``."""
        n = len(self.index)
        low, high = self.peer_pairs()
        once = self.sibling_dst < self.sibling_src
        return np.concatenate([
            np.minimum(self.customer, self.provider) * n
            + np.maximum(self.customer, self.provider),
            low * n + high,
            self.sibling_dst[once] * n + self.sibling_src[once]])


class Network:
    """A mutable topology holding nodes, links, ASes and AS relationships.

    The AS relationship sets are frozensets that the mutators replace,
    so the accessors hand out the stored set itself.  Every AS or
    relationship mutator bumps a version, and :meth:`relation_index`
    rebuilds its array view on the first read after one.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adj: Dict[str, Set[str]] = {}
        self._ases: Dict[int, ASNode] = {}
        self._sorted_ases: Optional[Tuple[ASNode, ...]] = None
        # customer -> providers, provider -> customers, and symmetrical
        # peer and sibling sets
        self._providers: Dict[int, FrozenSet[int]] = {}
        self._customers: Dict[int, FrozenSet[int]] = {}
        self._peers: Dict[int, FrozenSet[int]] = {}
        self._siblings: Dict[int, FrozenSet[int]] = {}
        self._version = 0
        self._hierarchy_version = 0
        self._relations: Optional[RelationIndex] = None

    # ------------------------------------------------------------------
    # Node-level API
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        kind: NodeKind = NodeKind.HOST,
        asn: Optional[int] = None,
        **metadata: object,
    ) -> Node:
        """Create and register a node; names must be unique."""
        if name in self._nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        if asn is not None and asn not in self._ases:
            self.add_as(asn)
        node = Node(name=name, kind=kind, asn=asn, metadata=dict(metadata))
        self._nodes[name] = node
        self._adj[name] = set()
        return node

    def node(self, name: str) -> Node:
        """Look a node up by name, raising :class:`TopologyError` if absent."""
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def remove_node(self, name: str) -> None:
        """Remove a node and every link incident to it."""
        self.node(name)
        for neighbor in list(self._adj[name]):
            self.remove_link(name, neighbor)
        del self._adj[name]
        del self._nodes[name]

    @property
    def nodes(self) -> List[Node]:
        return list(self._nodes.values())

    def node_names(self) -> List[str]:
        return list(self._nodes)

    def nodes_of_kind(self, kind: NodeKind) -> List[Node]:
        return [n for n in self._nodes.values() if n.kind is kind]

    def nodes_in_as(self, asn: int) -> List[Node]:
        return [n for n in self._nodes.values() if n.asn == asn]

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def add_link(
        self,
        a: str,
        b: str,
        latency: float = 0.01,
        capacity: float = float("inf"),
        cost: float = 1.0,
        **metadata: object,
    ) -> Link:
        """Create a bidirectional link between two existing nodes."""
        if a == b:
            raise TopologyError(f"self-loop on {a!r} not allowed")
        self.node(a)
        self.node(b)
        link = Link(a=a, b=b, latency=latency, capacity=capacity, cost=cost,
                    metadata=dict(metadata))
        key = link.key()
        if key in self._links:
            raise TopologyError(f"duplicate link {a!r}-{b!r}")
        self._links[key] = link
        self._adj[a].add(b)
        self._adj[b].add(a)
        return link

    def link(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no link {a!r}-{b!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self._links

    def remove_link(self, a: str, b: str) -> None:
        link = self.link(a, b)
        del self._links[link.key()]
        self._adj[a].discard(b)
        self._adj[b].discard(a)

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def neighbors(self, name: str, only_up: bool = True) -> List[str]:
        """Neighbors of a node, optionally restricted to operational links."""
        self.node(name)
        result = []
        for other in sorted(self._adj[name]):
            if only_up and not self.link(name, other).up:
                continue
            result.append(other)
        return result

    def fail_link(self, a: str, b: str) -> None:
        self.link(a, b).up = False

    def restore_link(self, a: str, b: str) -> None:
        self.link(a, b).up = True

    # ------------------------------------------------------------------
    # AS-level API
    # ------------------------------------------------------------------
    def add_as(self, asn: int, name: str = "", tier: int = 3, **metadata: object) -> ASNode:
        if asn in self._ases:
            raise TopologyError(f"duplicate AS {asn}")
        node = ASNode(asn=asn, name=name, tier=tier, metadata=dict(metadata))
        self._ases[asn] = node
        self._sorted_ases = None
        self._providers[asn] = self._customers[asn] = frozenset()
        self._peers[asn] = self._siblings[asn] = frozenset()
        self._version += 1
        self._hierarchy_version += 1
        return node

    def autonomous_system(self, asn: int) -> ASNode:
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown AS {asn}") from None

    def has_as(self, asn: int) -> bool:
        return asn in self._ases

    @property
    def ases(self) -> Tuple[ASNode, ...]:
        """Every AS in ascending ASN order."""
        if self._sorted_ases is None:
            self._sorted_ases = tuple(self._ases[k] for k in sorted(self._ases))
        return self._sorted_ases

    def add_as_relationship(self, a: int, b: int, rel: Relationship) -> None:
        """Record a business relationship.

        For ``CUSTOMER_PROVIDER``, ``a`` is the customer and ``b`` the
        provider.
        """
        self.autonomous_system(a)
        self.autonomous_system(b)
        if a == b:
            raise TopologyError(f"AS {a} cannot have a relationship with itself")
        self._version += 1
        if rel is Relationship.CUSTOMER_PROVIDER:
            self._hierarchy_version += 1
            self._providers[a] = self._providers[a] | {b}
            self._customers[b] = self._customers[b] | {a}
        elif rel is Relationship.PEER_PEER:
            self._peers[a] = self._peers[a] | {b}
            self._peers[b] = self._peers[b] | {a}
        else:
            self._siblings[a] = self._siblings[a] | {b}
            self._siblings[b] = self._siblings[b] | {a}

    def remove_as_relationship(self, a: int, b: int) -> Relationship:
        """Remove the business relationship between two ASes.

        Returns the relationship that was removed (as seen from ``a``;
        for ``CUSTOMER_PROVIDER`` either ordering of the arguments is
        accepted).  Raises :class:`TopologyError` if the ASes are not
        related — depeering a link that does not exist is a caller bug,
        not a no-op.
        """
        rel = self.relationship(a, b)
        if rel is None:
            raise TopologyError(f"ASes {a} and {b} have no relationship")
        self._version += 1
        if rel is Relationship.CUSTOMER_PROVIDER:
            self._hierarchy_version += 1
            customer, provider = (a, b) if b in self._providers[a] else (b, a)
            self._providers[customer] = self._providers[customer] - {provider}
            self._customers[provider] = self._customers[provider] - {customer}
        elif rel is Relationship.PEER_PEER:
            self._peers[a] = self._peers[a] - {b}
            self._peers[b] = self._peers[b] - {a}
        else:
            self._siblings[a] = self._siblings[a] - {b}
            self._siblings[b] = self._siblings[b] - {a}
        return rel

    @staticmethod
    def _related(table: Dict[int, FrozenSet[int]], asn: int) -> FrozenSet[int]:
        try:
            return table[asn]
        except KeyError:
            raise TopologyError(f"unknown AS {asn}") from None

    def providers_of(self, asn: int) -> FrozenSet[int]:
        return self._related(self._providers, asn)

    def customers_of(self, asn: int) -> FrozenSet[int]:
        return self._related(self._customers, asn)

    def peers_of(self, asn: int) -> FrozenSet[int]:
        return self._related(self._peers, asn)

    def siblings_of(self, asn: int) -> FrozenSet[int]:
        return self._related(self._siblings, asn)

    def as_neighbors(self, asn: int) -> FrozenSet[int]:
        """All ASes adjacent in the business graph."""
        return (
            self.providers_of(asn)
            | self.customers_of(asn)
            | self.peers_of(asn)
            | self.siblings_of(asn)
        )

    def relation_index(self) -> RelationIndex:
        """The business graph as row arrays (see :class:`RelationIndex`).

        Built on the first call after an AS or relationship changed; a
        change to peer or sibling edges alone keeps the hierarchy part.
        """
        current = self._relations
        if current is not None and current.version == self._version:
            return current
        if (current is not None
                and current.hierarchy_version == self._hierarchy_version):
            index, customer, provider, pays_transit = (
                current.index, current.customer, current.provider,
                current.pays_transit)
        else:
            index = ASIndex(list(self._ases))
            customer, provider = _edge_rows(index, self._providers)
            pays_transit = np.bincount(customer, minlength=len(index)) > 0
            pays_transit.flags.writeable = False
        self._relations = RelationIndex(
            self._version, self._hierarchy_version, index, customer,
            provider, pays_transit, _edge_rows(index, self._peers),
            _edge_rows(index, self._siblings))
        return self._relations

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        """The relationship from ``a``'s point of view toward ``b``."""
        if b in self._providers.get(a, ()):  # a is customer of b
            return Relationship.CUSTOMER_PROVIDER
        if a in self._providers.get(b, ()):  # a is provider of b
            return Relationship.CUSTOMER_PROVIDER
        if b in self._peers.get(a, ()):
            return Relationship.PEER_PEER
        if b in self._siblings.get(a, ()):
            return Relationship.SIBLING
        return None

    def is_provider_of(self, provider: int, customer: int) -> bool:
        return customer in self._customers.get(provider, ())

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def connected(self, a: str, b: str) -> bool:
        """Is there any operational path between two nodes?"""
        self.node(a)
        self.node(b)
        seen = {a}
        frontier = [a]
        while frontier:
            current = frontier.pop()
            if current == b:
                return True
            for nxt in self.neighbors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def shortest_path(self, a: str, b: str) -> Optional[List[str]]:
        """Minimum-hop operational path (BFS), or ``None`` if disconnected."""
        self.node(a)
        self.node(b)
        if a == b:
            return [a]
        prev: Dict[str, str] = {}
        seen = {a}
        frontier = [a]
        while frontier:
            nxt_frontier: List[str] = []
            for current in frontier:
                for nbr in self.neighbors(current):
                    if nbr in seen:
                        continue
                    seen.add(nbr)
                    prev[nbr] = current
                    if nbr == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    nxt_frontier.append(nbr)
            frontier = nxt_frontier
        return None

    def next_hop_tables(self) -> Dict[str, Dict[str, str]]:
        """Minimum-hop next hops from every node to every node it reaches.

        ``tables[src][dst] == shortest_path(src, dst)[1]``: one BFS per
        source visits levels and neighbours in ``shortest_path``'s order,
        so it builds the same search tree and reads the first hop off
        it.  ``dst == src`` and unreachable nodes have no entry; both
        levels of keys follow :meth:`node_names`.
        """
        names = self.node_names()
        up = {name: self.neighbors(name) for name in names}
        tables: Dict[str, Dict[str, str]] = {}
        for src in names:
            first_hop = {src: src}
            frontier = [src]
            while frontier:
                nxt_frontier: List[str] = []
                for current in frontier:
                    hop = first_hop[current]
                    for nbr in up[current]:
                        if nbr in first_hop:
                            continue
                        first_hop[nbr] = nbr if current == src else hop
                        nxt_frontier.append(nbr)
                frontier = nxt_frontier
            tables[src] = {dst: first_hop[dst] for dst in names
                           if dst != src and dst in first_hop}
        return tables

    def path_latency(self, path: Iterable[str]) -> float:
        """Sum of link latencies along a node path."""
        total = 0.0
        hops = list(path)
        for a, b in zip(hops, hops[1:]):
            total += self.link(a, b).latency
        return total


# ----------------------------------------------------------------------
# Topology builders
# ----------------------------------------------------------------------
def line_topology(n: int, prefix: str = "n", latency: float = 0.01) -> Network:
    """``n`` nodes in a line: n0 - n1 - ... - n(n-1)."""
    if n < 1:
        raise TopologyError("line topology needs at least one node")
    net = Network()
    for i in range(n):
        net.add_node(f"{prefix}{i}", kind=NodeKind.ROUTER if 0 < i < n - 1 else NodeKind.HOST)
    for i in range(n - 1):
        net.add_link(f"{prefix}{i}", f"{prefix}{i+1}", latency=latency)
    return net


def star_topology(n_leaves: int, hub: str = "hub", latency: float = 0.01) -> Network:
    """A hub router with ``n_leaves`` host spokes."""
    if n_leaves < 1:
        raise TopologyError("star topology needs at least one leaf")
    net = Network()
    net.add_node(hub, kind=NodeKind.ROUTER)
    for i in range(n_leaves):
        leaf = f"leaf{i}"
        net.add_node(leaf, kind=NodeKind.HOST)
        net.add_link(hub, leaf, latency=latency)
    return net


def dumbbell_topology(
    n_left: int, n_right: int, bottleneck_capacity: float = 1e6, latency: float = 0.01
) -> Network:
    """Classic dumbbell: two access routers joined by a bottleneck link."""
    net = Network()
    net.add_node("L", kind=NodeKind.ROUTER)
    net.add_node("R", kind=NodeKind.ROUTER)
    net.add_link("L", "R", latency=latency, capacity=bottleneck_capacity)
    for i in range(n_left):
        name = f"src{i}"
        net.add_node(name, kind=NodeKind.HOST)
        net.add_link(name, "L", latency=latency)
    for i in range(n_right):
        name = f"dst{i}"
        net.add_node(name, kind=NodeKind.HOST)
        net.add_link(name, "R", latency=latency)
    return net


def random_as_graph(
    n_tier1: int = 3,
    n_tier2: int = 6,
    n_tier3: int = 12,
    rng: Optional[random.Random] = None,
    seed: int = 0,
) -> Network:
    """A hierarchical AS-level graph with Gao–Rexford relationships.

    Tier-1 ASes form a full peer mesh; each tier-2 AS buys transit from one
    or two tier-1s and may peer with another tier-2; each tier-3 (stub) AS
    buys transit from one or two tier-2s (multihoming).  Wiring randomness
    comes from ``rng`` when provided, else from the explicit ``seed``.
    """
    if rng is None:
        rng = random.Random(seed)
    if n_tier1 < 1:
        raise TopologyError("need at least one tier-1 AS")
    net = Network()
    asn = itertools.count(1)
    tier1 = [next(asn) for _ in range(n_tier1)]
    tier2 = [next(asn) for _ in range(n_tier2)]
    tier3 = [next(asn) for _ in range(n_tier3)]
    for a in tier1:
        net.add_as(a, tier=1)
    for a in tier2:
        net.add_as(a, tier=2)
    for a in tier3:
        net.add_as(a, tier=3)
    # Tier-1 full mesh of peering.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1:]:
            net.add_as_relationship(a, b, Relationship.PEER_PEER)
    # Tier-2 transit and occasional peering.
    for a in tier2:
        n_providers = 1 + (rng.random() < 0.5)
        for p in rng.sample(tier1, min(n_providers, len(tier1))):
            net.add_as_relationship(a, p, Relationship.CUSTOMER_PROVIDER)
    for i, a in enumerate(tier2):
        for b in tier2[i + 1:]:
            if rng.random() < 0.25:
                net.add_as_relationship(a, b, Relationship.PEER_PEER)
    # Stubs multihome to tier-2.
    for a in tier3:
        n_providers = 1 + (rng.random() < 0.4)
        for p in rng.sample(tier2, min(n_providers, len(tier2))):
            net.add_as_relationship(a, p, Relationship.CUSTOMER_PROVIDER)
    return net


def multihomed_topology(n_providers: int = 2) -> Network:
    """One customer host multihomed to ``n_providers`` provider ASes.

    Used by the addressing / lock-in experiments (E01): the customer node
    ``cust`` attaches through one access router per provider.
    """
    if n_providers < 1:
        raise TopologyError("need at least one provider")
    net = Network()
    core_asn = 100
    net.add_as(core_asn, name="core", tier=1)
    net.add_node("core", kind=NodeKind.ROUTER, asn=core_asn)
    net.add_node("cust", kind=NodeKind.HOST)
    for i in range(n_providers):
        asn_i = i + 1
        net.add_as(asn_i, name=f"ISP{i}", tier=2)
        net.add_as_relationship(asn_i, core_asn, Relationship.CUSTOMER_PROVIDER)
        router = f"isp{i}-gw"
        net.add_node(router, kind=NodeKind.ROUTER, asn=asn_i)
        net.add_link(router, "core", latency=0.02)
        net.add_link("cust", router, latency=0.005)
    return net
