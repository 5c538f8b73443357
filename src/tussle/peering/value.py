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

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import PeeringError
from ..netsim.topology import Network
from ..scale.tmatrix import gravity_demand, stub_content, stub_populations
from ..scale.vrouting import CLASS_NONE, RibArrays

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
    originate demand.  Computed by one pass over ASes in reverse
    topological order of the provider DAG (customers before providers),
    which the generator guarantees is acyclic.
    """
    stubs = sorted(a.asn for a in network.ases if a.tier == 3)
    col = {asn: i for i, asn in enumerate(stubs)}
    n_stub = len(stubs)
    # Kahn order over provider edges: process an AS only after all its
    # customers are done.
    pending = {a.asn: len(network.customers_of(a.asn)) for a in network.ases}
    ready = sorted(asn for asn, count in pending.items() if count == 0)
    cones: Dict[int, np.ndarray] = {}
    order: List[int] = []
    while ready:
        asn = ready.pop(0)
        order.append(asn)
        cone = np.zeros(n_stub, dtype=bool)
        if asn in col:
            cone[col[asn]] = True
        for customer in sorted(network.customers_of(asn)):
            cone |= cones[customer]
        cones[asn] = cone
        for provider in sorted(network.providers_of(asn)):
            pending[provider] -= 1
            if pending[provider] == 0:
                # Insert keeping ready sorted so the walk order is a
                # pure function of the graph.
                ready.append(provider)
                ready.sort()
    if len(order) != len(network.ases):
        raise PeeringError("customer/provider edges contain a cycle; "
                           "customer cones are undefined")
    return cones


def route_volumes(rib: RibArrays, traffic: TrafficMatrix) -> np.ndarray:
    """Directed per-AS-edge traffic volumes under the converged routes.

    Returns an ``(n_as, n_as)`` matrix ``vol`` where ``vol[u, v]`` is
    the demand volume handed from AS row ``u`` to AS row ``v`` (rows in
    :class:`~tussle.scale.vrouting.ASIndex` order) by the selected
    valley-free routes.  Unreachable demand cells carry no volume.

    Vectorized the same way the fast path itself is: every destination
    column advances simultaneously, each level moving the in-flight
    weight onto its next-hop edge, for at most ``max path length``
    levels.  Every sum is one ``np.bincount``, which adds its weights
    in input order starting from zero: the per-edge volumes are one
    bincount over all levels' moves in level order, so each float is
    accumulated in exactly the order a per-level scatter-add would.
    """
    n = len(rib.index)
    d = len(rib.dest_asns)
    if d == 0 or len(traffic) < 2:
        return np.zeros((n, n), dtype=np.float64)
    if [int(a) for a in rib.dest_asns] != traffic.stub_asns:
        raise PeeringError("RIB destination columns must be the traffic "
                           "matrix's stubs, in ascending-ASN order")
    stub_rows = rib.index.rows_of(np.array(traffic.stub_asns, dtype=np.int64))
    # In-flight weight, flat over (AS row, destination column): demand
    # currently at that AS heading for that column's destination.
    weight = np.zeros((n, d), dtype=np.float64)
    weight[np.ix_(stub_rows, np.arange(d))] = traffic.demand
    weight[rib.cls == CLASS_NONE] = 0.0
    weight = weight.ravel()
    travelling = np.ones((n, d), dtype=bool)
    travelling[stub_rows, np.arange(d)] = False  # column c's destination row
    travelling = travelling.ravel()
    nhop = rib.nhop.ravel()
    edges: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    moved: List[np.ndarray] = [np.zeros(0, dtype=np.float64)]
    max_levels = int(rib.plen.max()) if rib.plen.size else 0
    for _ in range(max(max_levels, 0)):
        cells = np.flatnonzero((weight > 0) & travelling)
        if cells.size == 0:
            break
        moving = weight[cells]
        rows, cols = np.divmod(cells, d)
        hops = nhop[cells]
        edges.append(rows * n + hops)
        moved.append(moving)
        # Weight that reached its destination row is not travelling, so
        # the next level leaves it where it is.
        weight = np.bincount(hops * d + cols, weights=moving, minlength=n * d)
    return np.bincount(np.concatenate(edges), weights=np.concatenate(moved),
                       minlength=n * n).reshape(n, n)


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
    only_a = cones[a] & ~cones[b]
    only_b = cones[b] & ~cones[a]
    if len(traffic) < 2 or not only_a.any() or not only_b.any():
        return PairTraffic(a=a, b=b, to_b=0.0, to_a=0.0)
    to_b = float(traffic.demand[np.ix_(only_a, only_b)].sum())
    to_a = float(traffic.demand[np.ix_(only_b, only_a)].sum())
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
    the bargaining layer); omitted ASes default to zero.  Iteration is
    in ascending-ASN order throughout, so the float accumulation order
    — and therefore every byte of downstream canonical JSON — is a pure
    function of the inputs.
    """
    transfers = transfers or {}
    # Delivered demand per stub column: weight that reached its target.
    delivered_by_stub: Dict[int, float] = {}
    if len(traffic) >= 2 and len(rib.dest_asns) == len(traffic):
        stub_rows = rib.index.rows_of(
            np.array(traffic.stub_asns, dtype=np.int64))
        reach = rib.cls[np.ix_(stub_rows, np.arange(len(traffic)))] \
            != CLASS_NONE
        arrived = np.where(reach, traffic.demand, 0.0).sum(axis=0)
        for i, asn in enumerate(traffic.stub_asns):
            delivered_by_stub[asn] = float(arrived[i])
    accounts: Dict[int, AsAccount] = {}
    for autonomous in network.ases:  # ascending ASN
        asn = autonomous.asn
        row = rib.index.of(asn)
        bill = 0.0
        for provider in sorted(network.providers_of(asn)):
            bill += econ.transit_price * float(vol[row, rib.index.of(provider)])
        revenue = 0.0
        for customer in sorted(network.customers_of(asn)):
            revenue += econ.transit_price * float(vol[rib.index.of(customer), row])
        fees = econ.peering_cost * len(network.peers_of(asn))
        accounts[asn] = AsAccount(
            asn=asn,
            transit_bill=bill,
            transit_revenue=revenue,
            peering_fees=fees,
            transfers=float(transfers.get(asn, 0.0)),
            delivered_value=econ.delivery_value
            * delivered_by_stub.get(asn, 0.0),
        )
    return accounts
