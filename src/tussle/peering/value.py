"""Traffic-weighted interconnection value over a generated internet.

The paper's §V-A-4 story is that interconnection is where the money
tussle and the routing tussle meet: providers carry each other's
traffic under business agreements, and what an agreement is *worth*
depends on the routes the rest of the system converged to.  This module
computes that worth, at 10^3-AS scale, from three ingredients:

* a :mod:`tussle.topogen` business graph (who could peer where);
* a gravity demand matrix over the stub ASes
  (:mod:`tussle.scale.tmatrix` — heavy-tailed populations and content,
  deterministic per master-seed substream); and
* the converged valley-free RIB
  (:meth:`~tussle.routing.pathvector.PathVectorRouting.converge_fast`),
  which says which AS-AS edges each demand cell actually crosses.

Money model
-----------
Transit is metered on **sent** volume: a customer pays its provider
``transit_price`` per unit of traffic it hands *up* the hill; traffic
handed down to a customer rides the customer's bill, not the
provider's.  Peering is settlement-free per unit but each side pays a
flat ``peering_cost`` per agreement (ports, backhaul, ops).  Paid
peering adds an explicit side payment negotiated by
:mod:`tussle.peering.bargain`.  Stubs additionally value what actually
arrives (``delivery_value`` per delivered unit), which is what makes
"reachability intact" an economic statement and not just a routing one.

Everything here is a pure function of ``(network, demand, RIB,
economics)``; all iteration is in sorted AS order, so accounts are
byte-identical across runs and independent of dict insertion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import PeeringError
from ..netsim.topology import Network
from ..scale.tmatrix import gravity_demand, stub_content, stub_populations
from ..scale.vrouting import CLASS_NONE, RibArrays, _depths

__all__ = ["PeeringEconomics", "TrafficMatrix", "customer_cones",
           "route_volumes", "AsAccount", "as_accounts", "PairTraffic",
           "cone_traffic", "edge_traffic"]


@dataclass(frozen=True)
class PeeringEconomics:
    """Money knobs of the interconnection market.

    Attributes
    ----------
    transit_price:
        Price a customer pays its provider per unit of *sent* volume.
    peering_cost:
        Flat per-agreement cost each side of a peering pays (ports,
        backhaul, ops) per accounting round.
    delivery_value:
        Value a stub derives per unit of demand actually delivered.
    ratio_cap:
        Settlement-free threshold: a peering stays settlement-free while
        the larger side's transit savings are at most ``ratio_cap``
        times the smaller side's; beyond it the imbalance is settled as
        paid peering (the classic traffic-ratio clause).
    discount:
        Per-round discount factor for the repeated depeering game (the
        shadow of the future that keeps agreements honored).
    total_demand / demand_baseline / population_tail / content_tail:
        Gravity-demand knobs forwarded to :mod:`tussle.scale.tmatrix`.
    """

    transit_price: float = 1.0
    peering_cost: float = 10.0
    delivery_value: float = 2.0
    ratio_cap: float = 2.0
    discount: float = 0.9
    total_demand: float = 1e6
    demand_baseline: float = 0.25
    population_tail: float = 0.8
    content_tail: float = 1.2

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, and an infinite knob
        # turns surpluses into NaN deep inside the bargain.
        for knob in fields(self):
            value = getattr(self, knob.name)
            if not math.isfinite(value):
                raise PeeringError(
                    f"{knob.name} must be finite, got {value!r}")
        if self.transit_price <= 0:
            raise PeeringError("transit_price must be positive")
        if self.peering_cost < 0:
            raise PeeringError("peering_cost must be non-negative")
        if self.ratio_cap < 1.0:
            raise PeeringError("ratio_cap below 1 makes every peering paid")
        if not 0.0 <= self.discount < 1.0:
            raise PeeringError("discount factor must be in [0, 1)")


class TrafficMatrix:
    """The gravity demand matrix over a generated internet's stubs.

    A pure function of ``(network, seed, economics)``: stub order is
    ascending ASN, attribute vectors come from per-label RNG substreams
    (see :mod:`tussle.scale.tmatrix`), and the demand matrix is fully
    determined by them.  ``demand[i, j]`` is traffic *sent* by
    ``stub_asns[i]`` to ``stub_asns[j]``.
    """

    def __init__(self, stub_asns: Sequence[int], population: np.ndarray,
                 content: np.ndarray, demand: np.ndarray):
        self.stub_asns: List[int] = [int(a) for a in stub_asns]
        if self.stub_asns != sorted(set(self.stub_asns)):
            raise PeeringError("stub ASNs must be sorted and distinct")
        self.population = population
        self.content = content
        self.demand = demand
        self._col_of: Dict[int, int] = {a: i
                                        for i, a in enumerate(self.stub_asns)}

    @classmethod
    def from_network(cls, network: Network, seed: int,
                     econ: PeeringEconomics = PeeringEconomics()) -> "TrafficMatrix":
        stubs = sorted(a.asn for a in network.ases if a.tier == 3)
        n = len(stubs)
        if n < 2:
            # Degenerate internets (single AS, all-transit) carry no
            # inter-stub demand; the peering market is trivially empty.
            return cls(stubs, np.ones(n), np.ones(n),
                       np.zeros((n, n), dtype=np.float64))
        population = stub_populations(n, seed, econ.population_tail)
        content = stub_content(n, seed, econ.content_tail)
        demand = gravity_demand(population, content,
                                total_demand=econ.total_demand,
                                baseline=econ.demand_baseline)
        return cls(stubs, population, content, demand)

    def index_of(self, stub_asn: int) -> int:
        try:
            return self._col_of[stub_asn]
        except KeyError:
            raise PeeringError(f"AS {stub_asn} is not a stub of this "
                               f"traffic matrix") from None

    @property
    def total(self) -> float:
        return float(self.demand.sum())

    def __len__(self) -> int:
        return len(self.stub_asns)


def customer_cones(network: Network) -> Dict[int, np.ndarray]:
    """Per-AS boolean stub membership of the customer cone.

    ``cones[asn][i]`` is True iff stub ``i`` (ascending-ASN order) is
    reachable from ``asn`` by descending customer edges only — the
    classic CAIDA customer cone, restricted to stubs because only stubs
    originate demand.  Computed over the network's relation index, one
    height of the provider DAG at a time (customers before providers):
    each provider ORs in the cones of its customers one height down,
    which the generator guarantees is acyclic.
    """
    relations = network.relation_index()
    index = relations.index
    stubs = np.array(sorted(a.asn for a in network.ases if a.tier == 3),
                     dtype=np.int64)
    customer, provider = relations.customer, relations.provider
    height = _depths(len(index), customer, provider)
    if (height < 0).any():
        raise PeeringError("customer/provider edges contain a cycle; "
                           "customer cones are undefined")
    cones = np.zeros((len(index), stubs.size), dtype=bool)
    cones[index.rows_of(stubs), np.arange(stubs.size)] = True
    for level in range(1, int(height.max(initial=0)) + 1):
        at = np.flatnonzero(height[provider] == level)
        at = at[np.argsort(provider[at], kind="stable")]
        targets, starts = np.unique(provider[at], return_index=True)
        cones[targets] |= np.logical_or.reduceat(cones[customer[at]], starts)
    return {asn: cones[row] for row, asn in enumerate(index.asns.tolist())}


def _check_columns(rib: RibArrays, traffic: TrafficMatrix) -> None:
    if rib.dest_asns != traffic.stub_asns:
        raise PeeringError("RIB destination columns must be the traffic "
                           "matrix's stubs, in ascending-ASN order")


def route_volumes(rib: RibArrays, traffic: TrafficMatrix) -> np.ndarray:
    """Directed per-AS-edge traffic volumes under the converged routes.

    Returns an ``(n_as, n_as)`` matrix ``vol`` where ``vol[u, v]`` is
    the demand volume handed from AS row ``u`` to AS row ``v`` (rows in
    :class:`~tussle.scale.vrouting.ASIndex` order) by the selected
    valley-free routes.  Unreachable demand cells carry no volume.

    Vectorized the same way the fast path itself is: every destination
    column advances simultaneously, each level moving the in-flight
    weight onto its next-hop edge, for at most ``max path length``
    levels.  Cells are taken column by column, in ascending row order
    within a column (the RIB's destination-major order).  Every sum
    adds in input order: each level's weights are one ``np.bincount``
    (which starts from zero), the first level's moves start the edge
    volumes with one more, and every later level's moves continue them
    with an unbuffered ``np.add.at``.  So each float is accumulated in
    exactly the order a per-level scatter-add would.  Within a level,
    the moves into one edge ``u -> v`` all start at row ``u`` and the
    moves into one cell all share its column, so either cell order,
    column- or row-major, adds them in the same sequence.

    The first level passes every (sender stub, column) cell, sender by
    sender: every edge bucket is one sender's row and every weight
    bucket one column, so each bucket still receives its terms in the
    order a column-major pass gives them.  A cell that sends nothing
    moves ``0.0``: adding ``+0.0`` leaves every (non-negative) sum
    unchanged.  Later levels keep weight only where it can travel on:
    every next hop other than a column's destination has a customer (it
    forwards down a customer route or up from a customer), so in-flight
    weight is held over (column, AS with customers) cells, plus one slot
    per column for weight that reached a destination without customers.
    Weight at its destination has arrived and is zeroed, so it never
    travels on.
    """
    n = len(rib.index)
    d = len(rib.dest_asns)
    if len(traffic) < 2:
        return np.zeros((n, n), dtype=np.float64)
    _check_columns(rib, traffic)
    max_levels = int(rib.plen.max())
    stub_rows = rib.index.rows_of(np.array(traffic.stub_asns, dtype=np.int64))
    carriers = np.flatnonzero(np.bincount(rib.edges[1], minlength=n))
    width = carriers.size + 1
    slot = np.full(n, carriers.size, dtype=np.int64)
    slot[carriers] = np.arange(carriers.size)
    arrived = np.arange(d) * width + slot[stub_rows]
    # The first level leaves the senders: stub i's demand for column c,
    # wherever i holds a route and is not c itself.
    sending = (traffic.demand > 0) & (rib.cls[stub_rows] != CLASS_NONE)
    np.fill_diagonal(sending, False)
    moving = np.where(sending, traffic.demand, 0.0).ravel()
    # An unreachable cell's next hop is -1; any row serves, it moves 0.0.
    # int64 rows gather ``slot`` several times faster than int32 ones,
    # and the keys are built in place: this level sets the pass's peak
    # memory.
    hops = np.maximum(rib.nhop[stub_rows], 0).astype(np.int64)
    column_keys = slot[hops]
    column_keys += np.arange(d) * width
    weight = np.bincount(column_keys.ravel(), weights=moving,
                         minlength=d * width)
    del column_keys
    edge_keys = hops
    edge_keys += (stub_rows * n)[:, None]
    vol = np.bincount(edge_keys.ravel(), weights=moving, minlength=n * n)
    nhop = rib.nhop.T.ravel()
    for _ in range(max_levels - 1):
        weight[arrived] = 0.0
        cells = np.flatnonzero(weight > 0)
        if cells.size == 0:
            break
        moving = weight[cells]
        columns, at = np.divmod(cells, width)
        rows = carriers[at]
        hops = nhop[columns * n + rows]
        np.add.at(vol, rows * n + hops, moving)
        weight = np.bincount(columns * width + slot[hops], weights=moving,
                             minlength=d * width)
    return vol.reshape(n, n)


def edge_traffic(network: Network, rib: RibArrays, vol: np.ndarray,
                 a: int, b: int) -> "PairTraffic":
    """Measured directed volumes on the AS-level edge ``a``-``b``."""
    ra, rb = rib.index.of(a), rib.index.of(b)
    return PairTraffic(a=a, b=b, to_b=float(vol[ra, rb]),
                       to_a=float(vol[rb, ra]))


@dataclass(frozen=True)
class PairTraffic:
    """Directional exchanged volume between two ASes.

    ``to_b`` is volume flowing ``a -> b``; ``to_a`` the reverse.  The
    pair is stored with ``a < b`` by convention.
    """

    a: int
    b: int
    to_b: float
    to_a: float

    @property
    def total(self) -> float:
        return self.to_b + self.to_a


def cone_traffic(traffic: TrafficMatrix, cones: Mapping[int, np.ndarray],
                 a: int, b: int) -> PairTraffic:
    """Forecast exchanged volume if ``a`` and ``b`` peered.

    Demand between the *exclusive* customer cones — stubs that ``a``
    can reach down customer edges but ``b`` cannot, and vice versa.
    Overlapping stubs (multihomed into both cones) are excluded because
    their traffic rides customer routes with or without the peering.
    """
    if a not in cones or b not in cones:
        raise PeeringError(f"no customer cone for pair ({a}, {b})")
    cone_a, cone_b = cones[a], cones[b]
    # On booleans ``x > y`` is ``x and not y``.
    only_a = np.flatnonzero(cone_a > cone_b)
    only_b = np.flatnonzero(cone_b > cone_a)
    if len(traffic) < 2 or not only_a.size or not only_b.size:
        return PairTraffic(a=a, b=b, to_b=0.0, to_a=0.0)
    demand = traffic.demand
    to_b = float(demand[only_a[:, None], only_b].sum())
    to_a = float(demand[only_b[:, None], only_a].sum())
    return PairTraffic(a=a, b=b, to_b=to_b, to_a=to_a)


@dataclass(frozen=True)
class AsAccount:
    """One AS's interconnection account for one routed round.

    ``transit_bill`` is what it pays providers (sent volume metering),
    ``transit_revenue`` what customers pay it, ``peering_fees`` the flat
    per-agreement costs, ``transfers`` net paid-peering payments
    received minus paid, ``delivered_value`` the stub-side value of
    demand that actually arrived.  ``net`` sums them.
    """

    asn: int
    transit_bill: float
    transit_revenue: float
    peering_fees: float
    transfers: float
    delivered_value: float

    @property
    def net(self) -> float:
        return (self.transit_revenue - self.transit_bill
                - self.peering_fees + self.transfers
                + self.delivered_value)


def as_accounts(network: Network, rib: RibArrays, vol: np.ndarray,
                traffic: TrafficMatrix, econ: PeeringEconomics,
                transfers: Optional[Mapping[int, float]] = None,
                ) -> Dict[int, AsAccount]:
    """Per-AS interconnection accounts under the measured volumes.

    ``transfers`` maps ASN -> net paid-peering payment received (from
    the bargaining layer); omitted ASes default to zero.  Transit is
    metered on the customer/provider edges ``rib`` was converged over
    (``rib.edges``, sorted by customer row, then provider row), in two
    ordered passes: each bill adds its providers' edges, and each
    revenue its customers' edges, in ascending-ASN order starting from
    zero, which is the order a loop over ASes adds them.  Peering fees
    count ``network``'s live peerings, read off its relation index.  So
    every byte of downstream canonical JSON is a pure function of the
    inputs.

    Raises :class:`PeeringError` when the RIB's destination columns are
    not the traffic matrix's stubs in ascending-ASN order: delivered
    value reads column ``j`` as stub ``j``.
    """
    transfers = transfers or {}
    n = len(rib.index)
    # Delivered demand per AS row: weight that reached its target stub.
    arrived = np.zeros(n, dtype=np.float64)
    if len(traffic) >= 2:
        _check_columns(rib, traffic)
        stub_rows = rib.index.rows_of(
            np.array(traffic.stub_asns, dtype=np.int64))
        # (sender, destination) in C order: the axis-0 sum adds senders
        # in ascending order.
        reach = np.ascontiguousarray(rib.cls[stub_rows] != CLASS_NONE)
        arrived[stub_rows] = np.where(reach, traffic.demand, 0.0).sum(axis=0)
    customer, provider = rib.edges[0], rib.edges[1]
    metered = econ.transit_price * vol[customer, provider]
    bills = np.bincount(customer, weights=metered, minlength=n)
    by_provider = np.lexsort((customer, provider))
    revenues = np.bincount(provider[by_provider],
                           weights=metered[by_provider], minlength=n)
    delivered = econ.delivery_value * arrived
    relations = network.relation_index()
    peerings = np.bincount(relations.peer_dst, minlength=len(relations.index))
    accounts: Dict[int, AsAccount] = {}
    for asn, count in zip(relations.index.asns.tolist(), peerings.tolist()):
        row = rib.index.of(asn)
        accounts[asn] = AsAccount(
            asn=asn,
            transit_bill=float(bills[row]),
            transit_revenue=float(revenues[row]),
            peering_fees=econ.peering_cost * count,
            transfers=float(transfers.get(asn, 0.0)),
            delivered_value=float(delivered[row]),
        )
    return accounts
