"""The destination-major RIB and array accounts against the code they replaced.

``converge_valley_free`` keeps its planes destination-major and narrow
(``int8`` class, ``int32`` length and next hop) and pushes customer and
peer routes from the cells that hold them, ``route_volumes`` walks
cells in that layout, ``as_accounts`` and ``PeeringDynamics.step``
meter transit in ordered passes over the customer/provider edge rows,
and ``evaluate_existing`` returns a pair's last agreement when its
bargain inputs are bit-equal.  The readable forms they replaced are
kept here (not in ``src/``) as oracles:

* the row-major ``int64`` convergence, full and incremental, with every
  phase a dense pull over all in-edges;
* the row-major volume pass;
* the per-AS ``as_accounts`` loop;
* ``step``'s per-AS transit generator, written as the explicit loop
  ``sum()`` ran before Python 3.12 (which compensates float sums).

Every RIB, widened to ``int64`` in ``(AS, dest)`` order, and every
volume matrix of P02's reconvergences must equal its oracle byte for
byte, and so must the same quantities on hand-built nets that reach the
corners a generated internet does not.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import tussle.peering.dynamics as dynamics
import tussle.routing.pathvector as pathvector
import tussle.scale.vrouting as vrouting
from tussle.errors import PeeringError
from tussle.experiments import run_p02
from tussle.netsim.topology import Network, Relationship
from tussle.peering import (
    PairTraffic,
    PeeringDynamics,
    PeeringEconomics,
    TrafficMatrix,
    as_accounts,
    evaluate_pair,
    route_volumes,
)
from tussle.scale.vrouting import (
    CLASS_CUSTOMER,
    CLASS_NONE,
    CLASS_PEER,
    CLASS_PROVIDER,
    ASIndex,
    converge_valley_free,
)
from tussle.topogen import TopogenConfig, generate_internet

BIG = np.iinfo(np.int64).max
CLASS_SHIFT = 61
LENGTH = (1 << 29) - 1
LOW = 0xFFFFFFFF
UNTAGGED = ~(3 << CLASS_SHIFT)
BLOCK = 128


# ----------------------------------------------------------------------
# Oracles: the row-major int64 code as it was.
# ----------------------------------------------------------------------
def reference_edge_arrays(network, index):
    cust_rows, prov_rows, peer_src, peer_dst = [], [], [], []
    for autonomous in network.ases:
        asn = autonomous.asn
        row = index.of(asn)
        for provider in sorted(network.providers_of(asn)):
            cust_rows.append(row)
            prov_rows.append(index.of(provider))
        for peer in sorted(network.peers_of(asn)):
            peer_src.append(index.of(peer))
            peer_dst.append(row)
    return tuple(np.array(rows, dtype=np.int64)
                 for rows in (cust_rows, prov_rows, peer_src, peer_dst))


def reference_step(src, dst, route_class):
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    starts = np.flatnonzero(np.diff(dst, prepend=-1))
    return dst[starts], src, starts, route_class << CLASS_SHIFT


def reference_phase(src, dst, depth, route_class):
    at = depth[dst]
    return [reference_step(src[at == level], dst[at == level], route_class)
            for level in range(1, int(depth.max()) + 1)]


def reference_announce(keys, rows):
    return np.where(keys == BIG, BIG, (((keys | LOW) + 1) & UNTAGGED) | rows)


def reference_pull(keys, offers, steps):
    for targets, sources, starts, tag in steps:
        best = np.minimum.reduceat(np.take(offers, sources, axis=1), starts,
                                   axis=1)
        selected = np.minimum(np.take(keys, targets, axis=1), best | tag)
        keys[:, targets] = selected
        offers[:, targets] = reference_announce(selected, targets)


def reference_unpack(keys):
    keys = keys.T
    none = keys == BIG
    return (keys >> CLASS_SHIFT, np.where(none, -1, (keys >> 32) & LENGTH),
            np.where(none, -1, keys & LOW))


def reference_converge(network, destinations, previous=None):
    """Valley-free convergence into ``(AS, dest)`` ``int64`` planes."""
    index = ASIndex.from_network(network)
    n = len(index)
    dest_asns = [int(d) for d in destinations]
    dest_rows = np.array([index.of(d) for d in dest_asns], dtype=np.int64)
    d = len(dest_asns)
    edges = reference_edge_arrays(network, index)
    cust_u, prov_p, peer_src, peer_dst = edges
    base = previous if previous is not None and vrouting._same_hierarchy(
        previous, index, dest_asns, edges) else None
    if base is not None:
        changed = np.setxor1d(base.edges[2] * n + base.edges[3],
                              peer_src * n + peer_dst)
        if changed.size == 0:
            return base
        announcers = np.unique(changed // n)
        columns = np.flatnonzero(
            (base.cls[announcers] == CLASS_CUSTOMER).any(axis=0))
        cls, plen, nhop = base.cls.copy(), base.plen.copy(), base.nhop.copy()
        customer_levels = base.customer_levels
        steps = []
    else:
        height = vrouting._depths(n, cust_u, prov_p)
        columns = np.arange(d)
        cls, plen, nhop = (np.empty((n, d), dtype=np.int64) for _ in range(3))
        steps = reference_phase(cust_u, prov_p, height, CLASS_CUSTOMER)
    if peer_src.size:
        steps.append(reference_step(peer_src, peer_dst, CLASS_PEER))
    steps += reference_phase(prov_p, cust_u,
                             vrouting._depths(n, prov_p, cust_u),
                             CLASS_PROVIDER)
    rows = np.arange(n)
    for start in range(0, columns.size, BLOCK):
        cols = columns[start:start + BLOCK]
        if base is None:
            keys = np.full((cols.size, n), BIG, dtype=np.int64)
            keys[np.arange(cols.size), dest_rows[cols]] = dest_rows[cols]
        else:
            keys = np.ascontiguousarray(np.where(
                base.cls[:, cols] == CLASS_CUSTOMER,
                (base.plen[:, cols] << 32) | base.nhop[:, cols], BIG).T)
        reference_pull(keys, reference_announce(keys, rows), steps)
        cls[:, cols], plen[:, cols], nhop[:, cols] = reference_unpack(keys)
    if base is None:
        customer_levels = (int(plen[cls == CLASS_CUSTOMER].max()) + 1
                           if cust_u.size and d else 0)
    provider_lengths = np.bincount(plen[cls == CLASS_PROVIDER])
    levels = (customer_levels + int(peer_src.size > 0)
              + int(np.count_nonzero(provider_lengths)))
    return SimpleNamespace(index=index, dest_asns=dest_asns, cls=cls,
                           plen=plen, nhop=nhop, levels=max(levels, 1),
                           edges=edges, customer_levels=customer_levels)


def reference_volumes(rib, traffic):
    """The volume pass over row-major cells ``row * d + column``."""
    n = len(rib.index)
    d = len(rib.dest_asns)
    if d == 0 or len(traffic) < 2:
        return np.zeros((n, n), dtype=np.float64)
    stub_rows = rib.index.rows_of(np.array(traffic.stub_asns, dtype=np.int64))
    weight = np.zeros((n, d), dtype=np.float64)
    weight[np.ix_(stub_rows, np.arange(d))] = traffic.demand
    weight[rib.cls == CLASS_NONE] = 0.0
    weight = weight.ravel()
    travelling = np.ones((n, d), dtype=bool)
    travelling[stub_rows, np.arange(d)] = False
    travelling = travelling.ravel()
    nhop = rib.nhop.ravel()
    edges = [np.zeros(0, dtype=np.int64)]
    moved = [np.zeros(0, dtype=np.float64)]
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
        weight = np.bincount(hops * d + cols, weights=moving, minlength=n * d)
    return np.bincount(np.concatenate(edges), weights=np.concatenate(moved),
                       minlength=n * n).reshape(n, n)


def reference_accounts(network, rib, vol, traffic, econ, transfers=None):
    """The per-AS account loop, as ``(asn, field hexes)`` tuples."""
    transfers = transfers or {}
    delivered_by_stub = {}
    if len(traffic) >= 2 and len(rib.dest_asns) == len(traffic):
        stub_rows = rib.index.rows_of(
            np.array(traffic.stub_asns, dtype=np.int64))
        reach = rib.cls[np.ix_(stub_rows, np.arange(len(traffic)))] \
            != CLASS_NONE
        arrived = np.where(reach, traffic.demand, 0.0).sum(axis=0)
        for i, asn in enumerate(traffic.stub_asns):
            delivered_by_stub[asn] = float(arrived[i])
    accounts = []
    for autonomous in network.ases:
        asn = autonomous.asn
        row = rib.index.of(asn)
        bill = 0.0
        for provider in sorted(network.providers_of(asn)):
            bill += econ.transit_price * float(vol[row,
                                                   rib.index.of(provider)])
        revenue = 0.0
        for customer in sorted(network.customers_of(asn)):
            revenue += econ.transit_price * float(vol[rib.index.of(customer),
                                                      row])
        fees = econ.peering_cost * len(network.peers_of(asn))
        accounts.append((asn, bill.hex(), revenue.hex(), fees.hex(),
                         float(transfers.get(asn, 0.0)).hex(),
                         (econ.delivery_value
                          * delivered_by_stub.get(asn, 0.0)).hex()))
    return accounts


def reference_transit(network, rib, vol, econ):
    total = 0
    for autonomous in network.ases:
        for provider in sorted(network.providers_of(autonomous.asn)):
            total += econ.transit_price * float(
                vol[rib.index.of(autonomous.asn), rib.index.of(provider)])
    return float(total)


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def assert_same_planes(rib, reference):
    """The narrow destination-major planes, widened, are the oracle's bytes."""
    assert rib.cls.T.dtype == np.int8 and rib.cls.T.flags.c_contiguous
    for name in ("plen", "nhop"):
        plane = getattr(rib, name).T
        assert plane.dtype == np.int32 and plane.flags.c_contiguous, name
    for name in ("cls", "plen", "nhop"):
        widened = np.ascontiguousarray(getattr(rib, name), dtype=np.int64)
        assert widened.tobytes() == getattr(reference, name).tobytes(), name
    for rows, reference_rows in zip(rib.edges, reference.edges):
        assert rows.tobytes() == reference_rows.tobytes()
    assert rib.dest_asns == reference.dest_asns
    assert rib.levels == reference.levels
    assert rib.customer_levels == reference.customer_levels


def account_hexes(accounts):
    return [(a.asn, a.transit_bill.hex(), a.transit_revenue.hex(),
             a.peering_fees.hex(), a.transfers.hex(), a.delivered_value.hex())
            for a in accounts.values()]


def assert_same_everything(network, traffic, econ=PeeringEconomics()):
    """Planes, volumes and accounts on one net, fresh and incremental."""
    rib = converge_valley_free(network, traffic.stub_asns)
    reference = reference_converge(network, traffic.stub_asns)
    assert_same_planes(rib, reference)
    vol = route_volumes(rib, traffic)
    assert vol.tobytes() == reference_volumes(reference, traffic).tobytes()
    transfers = {a.asn: 0.25 * i for i, a in enumerate(network.ases)}
    assert account_hexes(as_accounts(network, rib, vol, traffic, econ,
                                     transfers)) \
        == reference_accounts(network, reference, vol, traffic, econ,
                              transfers)
    return rib, reference


# ----------------------------------------------------------------------
# Hand-built nets
# ----------------------------------------------------------------------
def two_valleys(peer=True):
    """1,2 under AS10; 3,4 under AS20; 10 and 20 under 100, maybe peering."""
    network = Network()
    network.add_as(100, tier=1)
    network.add_as(10, tier=2)
    network.add_as(20, tier=2)
    for stub, provider in ((1, 10), (2, 10), (3, 20), (4, 20)):
        network.add_as(stub, tier=3)
        network.add_as_relationship(stub, provider,
                                    Relationship.CUSTOMER_PROVIDER)
    network.add_as_relationship(10, 100, Relationship.CUSTOMER_PROVIDER)
    network.add_as_relationship(20, 100, Relationship.CUSTOMER_PROVIDER)
    if peer:
        network.add_as_relationship(10, 20, Relationship.PEER_PEER)
    return network


def traffic_of(network, seed=0):
    return TrafficMatrix.from_network(network, seed=seed)


class TestHandBuiltNets:
    def test_two_valleys(self):
        network = two_valleys()
        assert_same_everything(network, traffic_of(network))

    def test_no_peers(self):
        network = two_valleys(peer=False)
        rib, _ = assert_same_everything(network, traffic_of(network))
        assert not (rib.cls == CLASS_PEER).any()

    def test_tier3_as_with_a_customer_transits_a_stub_row(self):
        """AS 5 hangs below stub 3, so weight transits stub 3's row."""
        network = two_valleys()
        network.add_as(5, tier=3)
        network.add_as_relationship(5, 3, Relationship.CUSTOMER_PROVIDER)
        traffic = traffic_of(network)
        rib, _ = assert_same_everything(network, traffic)
        vol = route_volumes(rib, traffic)
        row = rib.index.of
        assert vol[row(5), row(3)] > 0 and vol[row(3), row(20)] > 0

    def test_three_providers_the_middle_one_closest(self):
        """Generated internets give an AS at most two providers; with
        three, the pull reduces the in-edges and the middle one wins."""
        network = Network()
        network.add_as(100, tier=1)
        for transit in (10, 20, 30):
            network.add_as(transit, tier=2)
            network.add_as_relationship(transit, 100,
                                        Relationship.CUSTOMER_PROVIDER)
        for stub, providers in ((1, (20,)), (2, (10, 20, 30)), (3, (30,))):
            network.add_as(stub, tier=3)
            for provider in providers:
                network.add_as_relationship(stub, provider,
                                            Relationship.CUSTOMER_PROVIDER)
        rib, _ = assert_same_everything(network, traffic_of(network))
        assert rib.as_path(2, 1) == (2, 20, 1)

    def test_unreachable_column(self):
        """Stub 9 has no provider: nobody reaches it, it reaches nobody."""
        network = two_valleys()
        network.add_as(9, tier=3)
        traffic = traffic_of(network)
        rib, _ = assert_same_everything(network, traffic)
        column = rib.column_of(9)
        assert (rib.cls[:, column] == CLASS_NONE).sum() == len(rib.index) - 1

    def test_zero_demand_rows(self):
        network = two_valleys()
        base = traffic_of(network)
        demand = base.demand.copy()
        demand[[0, 2]] = 0.0
        traffic = TrafficMatrix(base.stub_asns, base.population,
                                base.content, demand)
        rib, _ = assert_same_everything(network, traffic)
        vol = route_volumes(rib, traffic)
        assert vol[rib.index.of(1)].sum() == 0.0
        assert vol[rib.index.of(10)].sum() > 0

    def test_single_as(self):
        network = Network()
        network.add_as(1, tier=3)
        rib, _ = assert_same_everything(network, traffic_of(network))
        assert rib.cls.shape == (1, 1) and rib.cls[0, 0] == CLASS_CUSTOMER

    def test_incremental_depeer_and_repeer(self):
        network = two_valleys()
        traffic = traffic_of(network)
        rib = converge_valley_free(network, traffic.stub_asns)
        reference = reference_converge(network, traffic.stub_asns)
        for change in ("depeer", "repeer"):
            if change == "depeer":
                network.remove_as_relationship(10, 20)
            else:
                network.add_as_relationship(10, 20, Relationship.PEER_PEER)
            rib = converge_valley_free(network, traffic.stub_asns,
                                       previous=rib)
            reference = reference_converge(network, traffic.stub_asns,
                                           previous=reference)
            assert_same_planes(rib, reference)
            assert route_volumes(rib, traffic).tobytes() \
                == reference_volumes(reference, traffic).tobytes()


class TestColumnOrderCheck:
    def test_accounts_reject_a_rib_over_other_destinations(self):
        """A RIB over every AS once read as 0.0 delivered for every stub."""
        network = two_valleys()
        traffic = traffic_of(network)
        econ = PeeringEconomics()
        rib = converge_valley_free(network, traffic.stub_asns)
        vol = route_volumes(rib, traffic)
        delivered = [a.delivered_value for a in as_accounts(
            network, rib, vol, traffic, econ).values() if a.asn < 10]
        assert all(value > 0 for value in delivered)
        everywhere = converge_valley_free(network)
        with pytest.raises(PeeringError, match="stubs"):
            route_volumes(everywhere, traffic)
        with pytest.raises(PeeringError, match="stubs"):
            as_accounts(network, everywhere, vol, traffic, econ)


class TestRetainedPrevious:
    def test_incremental_convergence_leaves_previous_bytes_alone(self):
        network = generate_internet(
            TopogenConfig(n_ases=120, router_detail="none"), seed=0)
        dests = [a.asn for a in network.ases if a.tier == 3]
        rib = converge_valley_free(network, dests)
        before = [getattr(rib, name).tobytes()
                  for name in ("cls", "plen", "nhop")]
        tier1 = {a.asn for a in network.ases if a.tier == 1}
        a, b = next((a.asn, p) for a in network.ases
                    for p in sorted(network.peers_of(a.asn))
                    if not (a.asn in tier1 and p in tier1))
        network.remove_as_relationship(a, b)
        step = converge_valley_free(network, dests, previous=rib)
        assert step is not rib and 0 < step.recomputed < len(dests)
        assert [getattr(rib, name).tobytes()
                for name in ("cls", "plen", "nhop")] == before


class TestBargainMemo:
    def test_one_ulp_volume_change_rebargains_exactly_that_pair(
            self, monkeypatch):
        network = generate_internet(
            TopogenConfig(n_ases=120, router_detail="none"), seed=1)
        dyn = PeeringDynamics(network, seed=1)
        dyn.reconverge()
        pairs = [p for p in dyn._peer_pairs() if dyn._mutable(p)]
        first = {pair: dyn.evaluate_existing(pair) for pair in pairs}
        bargained = []

        def recorded(traffic, *args, **kwargs):
            bargained.append((traffic.a, traffic.b))
            return evaluate_pair(traffic, *args, **kwargs)

        monkeypatch.setattr(dynamics, "evaluate_pair", recorded)
        assert all(dyn.evaluate_existing(p) is first[p] for p in pairs)
        assert bargained == []
        moved = next(p for p in pairs if first[p] is not None)
        rib = dyn.routing.fast_rib
        ra, rb = rib.index.of(moved[0]), rib.index.of(moved[1])
        dyn.volumes[ra, rb] = np.nextafter(dyn.volumes[ra, rb], np.inf)
        again = {pair: dyn.evaluate_existing(pair) for pair in pairs}
        assert bargained == [moved]
        assert all(again[p] is first[p] for p in pairs if p != moved)
        assert again[moved] == evaluate_pair(
            PairTraffic(a=moved[0], b=moved[1],
                        to_b=float(dyn.volumes[ra, rb]),
                        to_a=float(dyn.volumes[rb, ra])),
            dyn.econ,
            a_pays_transit=bool(network.providers_of(moved[0])),
            b_pays_transit=bool(network.providers_of(moved[1])))


# ----------------------------------------------------------------------
# P02 at 10^3 ASes
# ----------------------------------------------------------------------
class TestP02Reconvergences:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_every_rib_volume_and_account_equals_its_oracle(
            self, seed, monkeypatch):
        real_converge = pathvector.converge_valley_free
        real_volumes = dynamics.route_volumes
        real_accounts = dynamics.as_accounts
        real_step = PeeringDynamics.step
        last = {"rib": None, "reference": None}
        seen = {"ribs": 0, "volumes": 0, "accounts": 0, "steps": 0}

        def converge(network, destinations=None, previous=None):
            rib = real_converge(network, destinations, previous=previous)
            reference = reference_converge(
                network, destinations,
                last["reference"] if previous is last["rib"] else None)
            assert_same_planes(rib, reference)
            last.update(rib=rib, reference=reference)
            seen["ribs"] += 1
            return rib

        def volumes(rib, traffic):
            vol = real_volumes(rib, traffic)
            assert rib is last["rib"]
            assert vol.tobytes() == reference_volumes(
                last["reference"], traffic).tobytes()
            seen["volumes"] += 1
            return vol

        def accounts(network, rib, vol, traffic, econ, transfers=None):
            result = real_accounts(network, rib, vol, traffic, econ,
                                   transfers)
            assert account_hexes(result) == reference_accounts(
                network, last["reference"], vol, traffic, econ, transfers)
            seen["accounts"] += 1
            return result

        def step(self, iteration):
            record = real_step(self, iteration)
            assert record.total_transit_cost.hex() == reference_transit(
                self.network, self.routing.fast_rib, self.volumes,
                self.econ).hex()
            seen["steps"] += 1
            return record

        monkeypatch.setattr(pathvector, "converge_valley_free", converge)
        monkeypatch.setattr(dynamics, "route_volumes", volumes)
        monkeypatch.setattr(dynamics, "as_accounts", accounts)
        monkeypatch.setattr(PeeringDynamics, "step", step)
        result = run_p02(n_ases=1000, seed=seed)
        assert result.shape_holds
        assert seen["ribs"] >= 5 and seen["volumes"] >= 4
        assert seen["accounts"] == 3 and seen["steps"] == seen["ribs"]
