"""Batch valley-free route propagation over arrays.

The scalar :class:`~tussle.routing.pathvector.PathVectorRouting` walks
Python dicts route by route and round by round; on a 10^3-AS graph one
convergence is minutes of object churn.  This module is the
convergence-only fast path: it exploits the *structure* of Gao-Rexford
policies — customer > peer > provider, shorter path, lowest next-hop
ASN — to compute the unique stable route selection directly, batched
over NumPy arrays, in three phases per destination column:

1. **customer routes** climb the provider DAG level by level (a BFS
   where each level's new holders pick the lowest-ASN announcing
   customer);
2. **peer routes** take exactly one lateral hop from any
   customer-routed peer (composite ``(length, asn)`` min-key);
3. **provider routes** descend the customer DAG in length order, each
   AS re-announcing its *selected* route downward.

All destinations propagate simultaneously: each phase is a handful of
``np.minimum.at`` scatter-reductions over the relationship edge arrays,
the same pattern the packet-vector backend uses
(:mod:`tussle.scale.vforwarding`).  The result is bit-identical to the
scalar protocol's fixed point (the ``routing`` pair of
:mod:`tussle.scale.parity` gates it over seeds), because Gao-Rexford
guarantees a unique stable selection and both backends break ties the
same documented way.

Scope: customer/provider and peer relationships only.  Sibling edges
(which the scalar protocol treats as UNKNOWN neighbours) and pairs
carrying two relationship kinds at once are rejected — the generator
and the CAIDA loader never produce either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScaleError
from ..netsim.topology import Network

__all__ = ["ASIndex", "RibArrays", "converge_valley_free"]

#: Route-class codes, ordered by preference; match
#: :class:`tussle.routing.policies.NeighborClass` numerically.
CLASS_CUSTOMER = 0
CLASS_PEER = 1
CLASS_PROVIDER = 2
CLASS_NONE = 3

_BIG = np.iinfo(np.int64).max


class ASIndex:
    """Bidirectional ASN <-> row mapping, rows sorted by ASN."""

    def __init__(self, asns: Sequence[int]):
        self.asns = np.array(sorted(asns), dtype=np.int64)
        if len(np.unique(self.asns)) != len(self.asns):
            raise ScaleError("AS numbers must be unique")
        self._row: Dict[int, int] = {int(a): i
                                     for i, a in enumerate(self.asns)}

    @classmethod
    def from_network(cls, network: Network) -> "ASIndex":
        return cls([a.asn for a in network.ases])

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


def _edge_arrays(network: Network, index: ASIndex) -> Tuple[np.ndarray, ...]:
    """Relationship edges as row arrays; rejects siblings and overlaps."""
    cust_rows: List[int] = []
    prov_rows: List[int] = []
    peer_src: List[int] = []
    peer_dst: List[int] = []
    seen: Dict[Tuple[int, int], str] = {}
    for autonomous in network.ases:
        asn = autonomous.asn
        if network.siblings_of(asn):
            raise ScaleError(
                f"AS {asn} has sibling relationships; the valley-free "
                f"fast path supports customer/provider and peer edges only "
                f"(use the scalar converge())")
        row = index.of(asn)
        for provider in sorted(network.providers_of(asn)):
            pair = (min(asn, provider), max(asn, provider))
            if seen.setdefault(pair, "p2c") != "p2c":
                raise ScaleError(f"ASes {pair} carry two relationship kinds")
            cust_rows.append(row)
            prov_rows.append(index.of(provider))
        for peer in sorted(network.peers_of(asn)):
            pair = (min(asn, peer), max(asn, peer))
            if seen.setdefault(pair, "p2p") != "p2p":
                raise ScaleError(f"ASes {pair} carry two relationship kinds")
            # Directed: peer announces to asn.
            peer_src.append(index.of(peer))
            peer_dst.append(row)
    return (np.array(cust_rows, dtype=np.int64),
            np.array(prov_rows, dtype=np.int64),
            np.array(peer_src, dtype=np.int64),
            np.array(peer_dst, dtype=np.int64))


class RibArrays:
    """Selected-route arrays over ``(as_row, dest_column)``.

    ``cls``/``plen``/``nhop`` hold the selected route's class code, AS
    hops, and next-hop *row* (-1 = unreachable).  ``levels`` is the
    number of propagation levels run — the fast-path analogue of the
    scalar protocol's iteration count.
    """

    def __init__(self, index: ASIndex, dest_asns: Sequence[int],
                 cls: np.ndarray, plen: np.ndarray, nhop: np.ndarray,
                 levels: int):
        self.index = index
        self.dest_asns = [int(d) for d in dest_asns]
        self._col: Dict[int, int] = {d: j for j, d in enumerate(self.dest_asns)}
        self.cls = cls
        self.plen = plen
        self.nhop = nhop
        self.levels = levels
        self._transit: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def column_of(self, dst: int) -> int:
        try:
            return self._col[dst]
        except KeyError:
            raise ScaleError(
                f"destination AS {dst} was not in the converged set") from None

    def reachable(self, src: int, dst: int) -> bool:
        column = self.column_of(dst)
        return bool(self.cls[self.index.of(src), column] != CLASS_NONE)

    def route_class(self, src: int, dst: int) -> int:
        """Selected route's class code (``CLASS_NONE`` if unreachable)."""
        return int(self.cls[self.index.of(src), self.column_of(dst)])

    def path_length(self, src: int, dst: int) -> Optional[int]:
        column = self.column_of(dst)
        row = self.index.of(src)
        if self.cls[row, column] == CLASS_NONE:
            return None
        return int(self.plen[row, column])

    def as_path(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        """Reconstruct the selected AS path by chasing next-hop pointers."""
        column = self.column_of(dst)
        row = self.index.of(src)
        target = self.index.of(dst)
        if self.cls[row, column] == CLASS_NONE:
            return None
        path = [int(self.index.asns[row])]
        for _ in range(len(self.index)):
            if row == target:
                return tuple(path)
            row = int(self.nhop[row, column])
            path.append(int(self.index.asns[row]))
        raise ScaleError(
            f"next-hop chain from AS {src} to AS {dst} did not terminate")

    # ------------------------------------------------------------------
    # Batch analyses
    # ------------------------------------------------------------------
    def reachability_counts(self) -> np.ndarray:
        """Per-destination-column count of ASes holding a route."""
        return (self.cls != CLASS_NONE).sum(axis=0)

    def transit_load(self) -> np.ndarray:
        """Per-AS count of selected (src, dst) routes transiting it.

        Endpoints excluded, matching the scalar protocol's
        ``transit_load``.  Computed once by walking every column's
        next-hop pointers simultaneously with scatter-adds, then cached.
        """
        if self._transit is not None:
            return self._transit
        n = len(self.index)
        load = np.zeros(n, dtype=np.int64)
        for column, dst in enumerate(self.dest_asns):
            target = self.index.of(dst)
            current = np.nonzero(
                (self.cls[:, column] != CLASS_NONE)
                & (np.arange(n) != target))[0]
            current = self.nhop[current, column]
            for _ in range(n):
                current = current[current != target]
                if current.size == 0:
                    break
                np.add.at(load, current, 1)
                current = self.nhop[current, column]
        self._transit = load
        return load


def converge_valley_free(network: Network,
                         destinations: Optional[Sequence[int]] = None) -> RibArrays:
    """Compute the Gao-Rexford stable selection for every (AS, dest).

    ``destinations`` restricts the RIB to a subset of destination ASes
    (the 10^4-AS mode: full columns would be 10^8 cells); default is
    every AS.  Returns :class:`RibArrays`.
    """
    index = ASIndex.from_network(network)
    n = len(index)
    if n == 0:
        raise ScaleError("network has no ASes to route between")
    if destinations is None:
        dest_asns: List[int] = [int(a) for a in index.asns]
    else:
        dest_asns = [int(d) for d in destinations]
        if len(set(dest_asns)) != len(dest_asns):
            raise ScaleError("destination ASes must be distinct")
    dest_rows = np.array([index.of(d) for d in dest_asns], dtype=np.int64)
    d = len(dest_asns)
    cust_u, prov_p, peer_src, peer_dst = _edge_arrays(network, index)
    columns = np.arange(d)

    asn_of = index.asns
    levels = 0

    # ------------------------------------------------------------------
    # Phase 1: customer routes climb the provider DAG.
    # ------------------------------------------------------------------
    cust_len = np.full((n, d), -1, dtype=np.int64)
    cust_nh = np.full((n, d), -1, dtype=np.int64)
    cust_len[dest_rows, columns] = 0
    cust_nh[dest_rows, columns] = dest_rows
    frontier = np.zeros((n, d), dtype=bool)
    frontier[dest_rows, columns] = True
    level = 0
    while frontier.any() and cust_u.size:
        level += 1
        edge_active, col_active = np.nonzero(frontier[cust_u])
        if edge_active.size == 0:
            break
        candidate = np.full((n, d), _BIG, dtype=np.int64)
        np.minimum.at(candidate, (prov_p[edge_active], col_active),
                      asn_of[cust_u[edge_active]])
        newly = (candidate != _BIG) & (cust_len < 0)
        cust_len[newly] = level
        cust_nh[newly] = index.rows_of(candidate[newly])
        frontier = newly
    levels += level

    # ------------------------------------------------------------------
    # Phase 2: one lateral peer hop from customer-routed peers.
    # ------------------------------------------------------------------
    has_peer = np.zeros((n, d), dtype=bool)
    peer_len = np.full((n, d), -1, dtype=np.int64)
    peer_nh = np.full((n, d), -1, dtype=np.int64)
    if peer_src.size:
        edge_active, col_active = np.nonzero(cust_len[peer_src] >= 0)
        if edge_active.size:
            announcer = peer_src[edge_active]
            key = ((cust_len[announcer, col_active] + 1) << 32) \
                | asn_of[announcer]
            best = np.full((n, d), _BIG, dtype=np.int64)
            np.minimum.at(best, (peer_dst[edge_active], col_active), key)
            has_peer = (best != _BIG) & (cust_len < 0)
            peer_len[has_peer] = best[has_peer] >> 32
            peer_nh[has_peer] = index.rows_of(best[has_peer] & 0xFFFFFFFF)
        levels += 1

    # ------------------------------------------------------------------
    # Phase 3: provider routes descend the customer DAG in length order.
    # Each AS announces its *selected* route downward; selection class
    # priority means customer/peer holders are seeds and never adopt a
    # provider route themselves.
    # ------------------------------------------------------------------
    announce = np.where(cust_len >= 0, cust_len,
                        np.where(has_peer, peer_len, -1))
    settled = announce >= 0
    prov_len = np.full((n, d), -1, dtype=np.int64)
    prov_nh = np.full((n, d), -1, dtype=np.int64)
    k = 1
    # announce is zero-size when the destination set is empty (a
    # stub-less internet still converges — to an empty RIB).
    while prov_p.size and announce.size \
            and k <= int(announce.max()) + 1 and k <= n:
        edge_active, col_active = np.nonzero(
            (announce[prov_p] == k - 1) & ~settled[cust_u]
            & (prov_len[cust_u] < 0))
        if edge_active.size:
            candidate = np.full((n, d), _BIG, dtype=np.int64)
            np.minimum.at(candidate, (cust_u[edge_active], col_active),
                          asn_of[prov_p[edge_active]])
            newly = candidate != _BIG
            prov_len[newly] = k
            prov_nh[newly] = index.rows_of(candidate[newly])
            announce[newly] = k
            levels += 1
        k += 1

    # ------------------------------------------------------------------
    # Merge phases by class preference.
    # ------------------------------------------------------------------
    cls = np.full((n, d), CLASS_NONE, dtype=np.int64)
    plen = np.full((n, d), -1, dtype=np.int64)
    nhop = np.full((n, d), -1, dtype=np.int64)
    has_prov = prov_len >= 0
    cls[has_prov] = CLASS_PROVIDER
    plen[has_prov] = prov_len[has_prov]
    nhop[has_prov] = prov_nh[has_prov]
    cls[has_peer] = CLASS_PEER
    plen[has_peer] = peer_len[has_peer]
    nhop[has_peer] = peer_nh[has_peer]
    has_cust = cust_len >= 0
    cls[has_cust] = CLASS_CUSTOMER
    plen[has_cust] = cust_len[has_cust]
    nhop[has_cust] = cust_nh[has_cust]
    return RibArrays(index, dest_asns, cls, plen, nhop, max(levels, 1))
