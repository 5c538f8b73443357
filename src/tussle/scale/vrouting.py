"""Batch valley-free route propagation over arrays.

The scalar :class:`~tussle.routing.pathvector.PathVectorRouting` walks
Python dicts route by route and round by round; on a 10^3-AS graph one
convergence is minutes of object churn.  This module is the
convergence-only fast path: it exploits the *structure* of Gao-Rexford
policies — customer > peer > provider, shorter path, lowest next-hop
ASN — to compute the unique stable route selection directly, batched
over NumPy arrays.

Every selected route is one hop longer than a route a neighbour
announced.  Rows are sorted by ASN, so the composite key
``(class << 61) | (length << 32) | next_hop_row`` orders routes exactly
as the policy does, and the smallest key an AS is offered, against the
route it already holds, is its selection.  Convergence is one pass per
Gao-Rexford phase:

1. **customer routes** climb from each destination, one path length at
   a time: every AS that took a customer route at the last length
   offers it to its providers, and an AS first offered one at this
   length keeps the smallest offer;
2. **peer routes** take exactly one lateral hop: every customer-route
   holder offers its route to its peers, and an AS without a customer
   route keeps the smallest offer;
3. **provider routes** descend top-down: ASes grouped by depth below
   the customer/provider DAG's roots, each one without a customer or
   peer route *pulling* the route its providers selected, with one
   ``np.minimum.reduceat`` over its in-edges (or one ``np.minimum``
   when it has at most two).

Customer routes exist only at the ASes above a destination, and peer
routes only at those ASes' peers: a few cells per column.  So those
phases push offers from the cells that hold routes
(``np.minimum.at``), and only those cells seed the provider phase's
offers, while provider routes reach nearly every cell and that phase
pulls over dense blocks.
Destination columns never interact, so the passes run over fixed-width
column blocks, which bounds the gathered (columns x in-edges) working
set.  The result is bit-identical to the scalar protocol's fixed point
(the ``routing`` pair of :mod:`tussle.scale.parity` gates it over
seeds), because Gao-Rexford guarantees a unique stable selection and
both backends break ties the same documented way.

**Incremental reconvergence.**  Given the ``previous`` RIB of the same
ASes, destinations and customer/provider edges, only peer edges can
differ.  A directed peer edge ``s -> t`` carries only ``s``'s customer
routes, so a changed edge can alter only the columns where ``s`` holds
a customer route.  Those columns re-run the peer and provider phases
over ``previous``'s customer-route cells and provider pull steps, which
depend on the customer/provider edges alone; every other column is
reused, and an unchanged graph returns ``previous`` itself.  The edges
are read off the network's relation index
(:meth:`~tussle.netsim.topology.Network.relation_index`).

Scope: customer/provider and peer relationships only.  Sibling edges
(which the scalar protocol treats as UNKNOWN neighbours), pairs
carrying two relationship kinds at once and customer/provider cycles
are rejected.  The generator produces none of them; a CAIDA file can
encode a cycle, which has no pull order.

The RIB is stored destination-major and narrow (see
:class:`RibArrays`): a block's keys unpack into whole contiguous rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ScaleError
from ..netsim.topology import ASIndex, Network, RelationIndex, isin_sorted

__all__ = ["ASIndex", "RibArrays", "converge_valley_free"]

#: Route-class codes, ordered by preference; match
#: :class:`tussle.routing.policies.NeighborClass` numerically.
CLASS_CUSTOMER = 0
CLASS_PEER = 1
CLASS_PROVIDER = 2
CLASS_NONE = 3

#: A route key packs ``(class << 61) | (length << 32) | next_hop_row``,
#: so the smallest key is the Gao-Rexford choice: class, then length,
#: then lowest next-hop ASN (rows are sorted by ASN).  "No route" is
#: _BIG: every bit is set, so its class reads CLASS_NONE and OR-ing a
#: tag or a row into it leaves it _BIG.
_BIG = np.iinfo(np.int64).max
_CLASS_SHIFT = 61
_LENGTH = (1 << 29) - 1
_LOW = 0xFFFFFFFF
_HOP = 1 << 32
_UNTAGGED = ~(3 << _CLASS_SHIFT)

#: Destination columns per block: bounds each pull's gathered
#: (columns x in-edges) array at about 5 MiB on a 10^3-AS internet.
_BLOCK = 128

#: One pull step, ``(targets, first, last, sources, starts, tag)``: see
#: :func:`_step`.
_Step = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
              int]


def _edge_arrays(relations: RelationIndex) -> Tuple[np.ndarray, ...]:
    """Relationship edges as row arrays; rejects siblings and overlaps.

    Customer/provider rows are sorted by customer, then provider, and
    directed peer rows by target, then source (the index's own order).
    The lowest-ASN offender is reported, a sibling first.
    """
    asns = relations.index.asns
    n = len(asns)
    doubled = np.flatnonzero(isin_sorted(
        relations.customer * n + relations.provider,
        relations.peer_dst * n + relations.peer_src))
    if relations.sibling_dst.size and (
            doubled.size == 0
            or relations.sibling_dst[0] <= relations.customer[doubled[0]]):
        asn = int(asns[relations.sibling_dst[0]])
        raise ScaleError(
            f"AS {asn} has sibling relationships; the valley-free fast path "
            f"supports customer/provider and peer edges only (use the "
            f"scalar converge())")
    if doubled.size:
        pair = tuple(sorted((int(asns[relations.customer[doubled[0]]]),
                             int(asns[relations.provider[doubled[0]]]))))
        raise ScaleError(f"ASes {pair} carry two relationship kinds")
    return (relations.customer, relations.provider, relations.peer_src,
            relations.peer_dst)


class RibArrays:
    """Selected-route arrays over ``(as_row, dest_column)``.

    ``cls``/``plen``/``nhop`` hold the selected route's class code, AS
    hops, and next-hop *row* (-1 = unreachable).  They are transposed
    views of destination-major planes: ``cls.T`` is a C-contiguous
    ``(dest_column, as_row)`` ``int8`` array and ``plen.T``/``nhop.T``
    are ``int32``, so one destination column is one contiguous row (7.6
    MB at 10^3 ASes x 840 stubs, against 20 MB as three ``int64``
    planes).  The constructor takes the destination-major planes.
    ``levels`` is the
    fast-path analogue of the scalar protocol's iteration count: the
    longest customer route + 1 (``customer_levels``; 0 without
    customer/provider edges or destinations), plus 1 if any peer edge
    exists, plus the number of distinct provider-route lengths, and at
    least 1.

    ``edges`` are the ``(customer, provider, peer_src, peer_dst)`` row
    arrays the RIB was converged over, ``steps`` the provider phase's
    pull steps over its customer/provider edges, ``customer_routes``
    the ``(cells, keys)`` of every customer route (cell ``column * n_as +
    row``, ascending), and ``recomputed`` the number of destination
    columns that convergence computed; they let the next convergence
    reuse this one (see :func:`converge_valley_free`).
    """

    def __init__(self, index: ASIndex, dest_asns: Sequence[int],
                 cls: np.ndarray, plen: np.ndarray, nhop: np.ndarray,
                 levels: int, edges: Tuple[np.ndarray, ...],
                 steps: List[_Step],
                 customer_routes: Tuple[np.ndarray, np.ndarray],
                 customer_levels: int, recomputed: int):
        self.index = index
        self.dest_asns = [int(d) for d in dest_asns]
        self._col: Dict[int, int] = {d: j for j, d in enumerate(self.dest_asns)}
        self.cls = cls.T
        self.plen = plen.T
        self.nhop = nhop.T
        self.levels = levels
        self.edges = edges
        self.steps = steps
        self.customer_routes = customer_routes
        self.customer_levels = customer_levels
        self.recomputed = recomputed
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


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort (numpy 2's hashes first, which
    is several times slower here; see
    :func:`~tussle.netsim.topology.isin_sorted`)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _depths(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Longest-path depth of every row over the edges ``src -> dst``.

    Rows on a cycle, or reachable from one, keep depth -1.
    """
    depth = np.full(n, -1, dtype=np.int64)
    waiting = np.bincount(dst, minlength=n)
    ready = np.flatnonzero(waiting == 0)
    level = 0
    while ready.size:
        depth[ready] = level
        waiting -= np.bincount(dst[depth[src] == level], minlength=n)
        ready = np.flatnonzero((waiting == 0) & (depth < 0))
        level += 1
    return depth


def _on_cycle(src: np.ndarray, dst: np.ndarray, stuck: np.ndarray) -> int:
    """A row on a cycle of ``src -> dst`` edges among the ``stuck`` rows.

    Every stuck row has an in-edge from another stuck row, so walking
    those edges backwards must come back to a row it has visited.
    """
    row = int(np.flatnonzero(stuck)[0])
    visited = np.zeros(stuck.size, dtype=bool)
    while not visited[row]:
        visited[row] = True
        row = int(src[(dst == row) & stuck[src]].min())
    return row


def _step(src: np.ndarray, dst: np.ndarray, route_class: int) -> _Step:
    """The edges ``src -> dst`` as one pull step.

    Targets with one or two in-edges come first and take the smaller
    offer of their first and last source, which needs no segmented
    reduction.  The rest follow, each reducing its in-edges
    ``sources[starts[i]:starts[i + 1]]``.
    """
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    ends = np.append(starts[1:], src.size)
    few = ends - starts <= 2
    many = np.repeat(~few, ends - starts)
    targets = np.concatenate([dst[starts][few], dst[starts][~few]])
    return (targets, src[starts][few], src[ends - 1][few], src[many],
            np.flatnonzero(np.diff(dst[many], prepend=-1)),
            route_class << _CLASS_SHIFT)


def _phase(src: np.ndarray, dst: np.ndarray, depth: np.ndarray,
           route_class: int) -> List[_Step]:
    """One pull step per depth of ``dst``, so every source is final first."""
    at = depth[dst]
    return [_step(src[at == level], dst[at == level], route_class)
            for level in range(1, int(depth.max()) + 1)]


def _adjacency(src: np.ndarray, dst: np.ndarray,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The edges ``src -> dst`` by source row: ``(offsets, targets)``."""
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[np.lexsort((dst, src))]


def _announce(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """What ``rows`` offer a neighbour: their route one hop longer, untagged."""
    return np.where(keys == _BIG, _BIG,
                    (((keys | _LOW) + 1) & _UNTAGGED) | rows)


def _push(flat: np.ndarray, holders: np.ndarray, n: int,
          adjacency: Tuple[np.ndarray, np.ndarray], tag: int) -> np.ndarray:
    """Offer the routes at ``holders`` one hop along ``adjacency``, in place.

    ``flat`` is a block of ``(column, row)`` keys flattened, and
    ``holders`` are cells in it that hold a route.  Every offered cell
    keeps the smaller of its key and each offer tagged with ``tag``.
    Returns the offered cells that held no route before.
    """
    offsets, targets = adjacency
    rows = holders % n
    counts = offsets[rows + 1] - offsets[rows]
    which = np.repeat(np.arange(holders.size), counts)
    edges = np.repeat(offsets[rows] - np.cumsum(counts) + counts, counts) \
        + np.arange(which.size)
    cells = holders[which] - rows[which] + targets[edges]
    fresh = cells[flat[cells] == _BIG]
    np.minimum.at(flat, cells, _announce(flat[holders], rows)[which] | tag)
    return fresh


def _customer_block(customer_routes: Tuple[np.ndarray, np.ndarray],
                    columns: np.ndarray,
                    n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``customer_routes`` of ``columns`` as cells of a flattened
    ``(columns, row)`` block, ascending, and their keys."""
    cells, keys = customer_routes
    first = np.searchsorted(cells, columns * n)
    counts = np.searchsorted(cells, columns * n + n) - first
    at = np.repeat(first - np.cumsum(counts) + counts, counts) \
        + np.arange(counts.sum())
    return np.repeat(np.arange(columns.size) * n, counts) + cells[at] % n, \
        keys[at]


def _pull(keys: np.ndarray, offers: np.ndarray, steps: List[_Step]) -> None:
    """Run ``steps`` over one block of ``(column, row)`` keys, in place.

    Each target keeps the smaller of its own key and its in-edges' best
    offer tagged with the step's class, then offers its selection on
    (except after the last step, which nobody pulls from).
    """
    for i, (targets, first, last, sources, starts, tag) in enumerate(steps):
        best = np.empty((keys.shape[0], targets.size), dtype=np.int64)
        np.minimum(np.take(offers, first, axis=1),
                   np.take(offers, last, axis=1), out=best[:, :first.size])
        if starts.size:
            best[:, first.size:] = np.minimum.reduceat(
                np.take(offers, sources, axis=1), starts, axis=1)
        selected = np.minimum(np.take(keys, targets, axis=1), best | tag)
        keys[:, targets] = selected
        if i + 1 < len(steps):
            offers[:, targets] = _announce(selected, targets)


def _unpack(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's ``(column, row)`` keys as class, length and next hop."""
    none = keys == _BIG
    return (keys >> _CLASS_SHIFT, np.where(none, -1, (keys >> 32) & _LENGTH),
            np.where(none, -1, keys & _LOW))


def _same_hierarchy(previous: RibArrays, index: ASIndex,
                    dest_asns: List[int], edges: Tuple[np.ndarray, ...]) -> bool:
    """True when only peer edges can differ from ``previous``'s graph."""
    return (np.array_equal(previous.index.asns, index.asns)
            and previous.dest_asns == dest_asns
            and np.array_equal(previous.edges[0], edges[0])
            and np.array_equal(previous.edges[1], edges[1]))


def converge_valley_free(network: Network,
                         destinations: Optional[Sequence[int]] = None,
                         previous: Optional[RibArrays] = None) -> RibArrays:
    """Compute the Gao-Rexford stable selection for every (AS, dest).

    ``destinations`` restricts the RIB to a subset of destination ASes
    (the 10^4-AS mode: full columns would be 10^8 cells); default is
    every AS.  Returns :class:`RibArrays`.

    ``previous`` is a RIB this function returned earlier.  When the
    ASes, the destination list and the customer/provider edges are all
    unchanged, only the columns where an endpoint of a changed directed
    peer edge holds a customer route are recomputed, over
    ``previous``'s customer routes and provider pull steps, and an
    unchanged graph returns ``previous`` itself.  Otherwise ``previous``
    is ignored and every column is converged.  Either way the result,
    and its ``levels``, equal a fresh convergence's.

    Raises :class:`ScaleError` on sibling edges, doubly-related pairs
    and customer/provider cycles, which only the scalar ``converge()``
    handles.
    """
    relations = network.relation_index()
    index = relations.index
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
    edges = _edge_arrays(relations)
    cust_u, prov_p, peer_src, peer_dst = edges

    base = previous if previous is not None and _same_hierarchy(
        previous, index, dest_asns, edges) else None
    if base is not None:
        changed = np.setxor1d(base.edges[2] * n + base.edges[3],
                              peer_src * n + peer_dst, assume_unique=True)
        if changed.size == 0:
            return base
        announcers = _unique(changed // n)
        columns = np.flatnonzero(
            (base.cls.T[:, announcers] == CLASS_CUSTOMER).any(axis=1))
        # Copies of the destination-major planes: ``previous`` keeps its
        # bytes.
        cls, plen, nhop = (plane.T.copy()
                           for plane in (base.cls, base.plen, base.nhop))
        customer_levels = base.customer_levels
        steps, customer_routes = base.steps, base.customer_routes
    else:
        height = _depths(n, cust_u, prov_p)
        if (height < 0).any():
            asn = int(index.asns[_on_cycle(cust_u, prov_p, height < 0)])
            raise ScaleError(
                f"customer/provider edges form a cycle through AS {asn}; "
                f"the valley-free fast path needs an acyclic provider "
                f"hierarchy (use the scalar converge())")
        columns = np.arange(d)
        cls = np.empty((d, n), dtype=np.int8)
        plen, nhop = (np.empty((d, n), dtype=np.int32) for _ in range(2))
        up = _adjacency(cust_u, prov_p, n)
        steps = _phase(prov_p, cust_u, _depths(n, prov_p, cust_u),
                       CLASS_PROVIDER)
    across = _adjacency(peer_src, peer_dst, n)

    found_cells = [np.zeros(0, dtype=np.int64)]
    found_keys = [np.zeros(0, dtype=np.int64)]
    for start in range(0, columns.size, _BLOCK):
        cols = columns[start:start + _BLOCK]
        keys = np.full((cols.size, n), _BIG, dtype=np.int64)
        flat = keys.reshape(-1)
        if base is None:
            reached = np.arange(cols.size) * n + dest_rows[cols]
            flat[reached] = dest_rows[cols]
            # Customer routes, one length at a time: a cell first
            # reached at this length is final.
            held = [reached]
            while reached.size:
                reached = _unique(_push(flat, reached, n, up,
                                          CLASS_CUSTOMER << _CLASS_SHIFT))
                held.append(reached)
            holders = np.concatenate(held)
            found_cells.append(cols[holders // n] * n + holders % n)
            found_keys.append(flat[holders])
        else:
            # Same customer/provider DAG: the customer routes carry over.
            holders, carried = _customer_block(customer_routes, cols, n)
            flat[holders] = carried
        routed = np.concatenate([holders, _push(flat, holders, n, across,
                                                CLASS_PEER << _CLASS_SHIFT)])
        # Only routed cells offer anything: the rest offer _BIG.
        offers = np.full_like(keys, _BIG)
        offers.reshape(-1)[routed] = _announce(flat[routed], routed % n)
        _pull(keys, offers, steps)
        cls[cols], plen[cols], nhop[cols] = _unpack(keys)

    if base is None:
        cells = np.concatenate(found_cells)
        order = np.argsort(cells)
        customer_routes = (cells[order],
                           np.concatenate(found_keys)[order])
        # A customer route's key is its length << 32 | next hop.
        customer_levels = (int(customer_routes[1].max() >> 32) + 1
                           if cust_u.size and d else 0)
    levels = (customer_levels + int(peer_src.size > 0)
              + int(np.count_nonzero(np.bincount(plen[cls == CLASS_PROVIDER]))))
    return RibArrays(index, dest_asns, cls, plen, nhop, max(levels, 1),
                     edges, steps, customer_routes, customer_levels,
                     int(columns.size))
