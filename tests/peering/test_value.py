"""The traffic-value substrate against hand-traceable ground truth.

The vectorized volume pass (:func:`tussle.peering.route_volumes`) is
the load-bearing kernel of the peering layer — every dollar in every
bargain flows through it — so this suite pins it to a network small
enough to route by hand, and checks the conservation laws that must
hold at any scale.
"""

import numpy as np
import pytest

from tussle.netsim.topology import Network, Relationship
from tussle.peering import (
    PeeringDynamics,
    PeeringEconomics,
    TrafficMatrix,
    as_accounts,
    cone_traffic,
    customer_cones,
    route_volumes,
)
from tussle.routing import PathVectorRouting
from tussle.scale.vrouting import CLASS_NONE
from tussle.topogen import TopogenConfig, generate_internet


def _two_valley_net() -> Network:
    """1,2 under AS10; 3,4 under AS20; 10 and 20 peer under 100."""
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
    network.add_as_relationship(10, 20, Relationship.PEER_PEER)
    return network


@pytest.fixture()
def routed():
    network = _two_valley_net()
    traffic = TrafficMatrix.from_network(network, seed=0)
    proto = PathVectorRouting(network)
    proto.converge_fast(destinations=tuple(traffic.stub_asns))
    volumes = route_volumes(proto.fast_rib, traffic)
    return network, traffic, proto, volumes


class TestRouteVolumes:
    def test_every_edge_carries_exactly_its_paths(self, routed):
        network, traffic, proto, volumes = routed
        rib = proto.fast_rib
        expected = np.zeros_like(volumes)
        for i, src in enumerate(traffic.stub_asns):
            for j, dst in enumerate(traffic.stub_asns):
                if i == j:
                    continue
                path = proto.as_path(src, dst)
                for hop, nxt in zip(path, path[1:]):
                    expected[rib.index.of(hop), rib.index.of(nxt)] += \
                        traffic.demand[i, j]
        np.testing.assert_allclose(volumes, expected, rtol=1e-12)

    def test_demand_is_conserved_into_destinations(self, routed):
        network, traffic, proto, volumes = routed
        rib = proto.fast_rib
        for j, dst in enumerate(traffic.stub_asns):
            inbound = float(volumes[:, rib.index.of(dst)].sum())
            assert inbound == pytest.approx(float(traffic.demand[:, j].sum()))

    def test_peer_edge_carries_cross_valley_demand_only(self, routed):
        network, traffic, proto, volumes = routed
        rib = proto.fast_rib
        left = [traffic.index_of(s) for s in (1, 2)]
        right = [traffic.index_of(s) for s in (3, 4)]
        expected = float(traffic.demand[np.ix_(left, right)].sum())
        assert float(volumes[rib.index.of(10), rib.index.of(20)]) \
            == pytest.approx(expected)
        # Nothing climbs to the tier-1: the peer edge short-circuits it.
        assert float(volumes[rib.index.of(10), rib.index.of(100)]) == 0.0
        assert float(volumes[rib.index.of(20), rib.index.of(100)]) == 0.0


def scatter_add_volumes(rib, traffic):
    """The per-level ``np.add.at`` volume pass, as the order reference."""
    n, d = len(rib.index), len(rib.dest_asns)
    stub_rows = rib.index.rows_of(np.array(traffic.stub_asns))
    weight = np.zeros((n, d))
    weight[np.ix_(stub_rows, np.arange(d))] = traffic.demand
    weight[rib.cls == CLASS_NONE] = 0.0
    at_target = np.zeros((n, d), dtype=bool)
    at_target[stub_rows, np.arange(d)] = True
    vol = np.zeros(n * n)
    for _ in range(int(rib.plen.max())):
        rows, cols = np.nonzero((weight > 0) & ~at_target)
        moving, hops = weight[rows, cols], rib.nhop[rows, cols]
        np.add.at(vol, rows * n + hops, moving)
        advanced = np.zeros((n, d))
        np.add.at(advanced, (hops, cols), moving)
        weight = np.where(at_target, weight, 0.0) + advanced
    return vol.reshape(n, n)


class TestSummationOrder:
    @pytest.mark.parametrize("n_ases, seed", [(120, 0), (300, 4)])
    def test_volumes_are_byte_identical_to_the_scatter_add_reference(
            self, n_ases, seed):
        """Every float is accumulated in the per-level scatter-add order."""
        network = generate_internet(
            TopogenConfig(n_ases=n_ases, router_detail="none"), seed=seed)
        dyn = PeeringDynamics(network, seed=seed)
        dyn.reconverge()
        reference = scatter_add_volumes(dyn.routing.fast_rib, dyn.traffic)
        assert dyn.volumes.tobytes() == reference.tobytes()


class TestCones:
    def test_cones_partition_the_two_valleys(self, routed):
        network, traffic, _, _ = routed
        cones = customer_cones(network)
        stub_of = {s: i for i, s in enumerate(traffic.stub_asns)}
        assert [i for i, x in enumerate(cones[10]) if x] \
            == sorted(stub_of[s] for s in (1, 2))
        assert [i for i, x in enumerate(cones[20]) if x] \
            == sorted(stub_of[s] for s in (3, 4))
        assert cones[100].all()
        # A stub's cone is itself.
        assert cones[1].sum() == 1

    def test_cone_traffic_matches_the_measured_peer_edge(self, routed):
        network, traffic, proto, volumes = routed
        rib = proto.fast_rib
        cones = customer_cones(network)
        forecast = cone_traffic(traffic, cones, 10, 20)
        assert forecast.to_b == pytest.approx(
            float(volumes[rib.index.of(10), rib.index.of(20)]))
        assert forecast.to_a == pytest.approx(
            float(volumes[rib.index.of(20), rib.index.of(10)]))


class TestAccounts:
    def test_transit_money_is_zero_sum_between_ases(self, routed):
        network, traffic, proto, volumes = routed
        econ = PeeringEconomics()
        accounts = as_accounts(network, proto.fast_rib, volumes,
                               traffic, econ)
        bills = sum(a.transit_bill for a in accounts.values())
        revenue = sum(a.transit_revenue for a in accounts.values())
        assert bills == pytest.approx(revenue)
        assert bills > 0

    def test_delivered_value_covers_all_demand_when_reachable(self, routed):
        network, traffic, proto, volumes = routed
        econ = PeeringEconomics()
        accounts = as_accounts(network, proto.fast_rib, volumes,
                               traffic, econ)
        delivered = sum(a.delivered_value for a in accounts.values())
        assert delivered == pytest.approx(econ.delivery_value
                                          * traffic.total)

    def test_transfers_enter_the_accounts_signed(self, routed):
        network, traffic, proto, volumes = routed
        econ = PeeringEconomics()
        accounts = as_accounts(network, proto.fast_rib, volumes, traffic,
                               econ, transfers={10: 5.0, 20: -5.0})
        assert accounts[10].transfers == 5.0
        assert accounts[20].transfers == -5.0


class TestScaleParityWithDynamics:
    @pytest.mark.slow
    def test_generated_internet_volume_conservation(self):
        """Conservation holds on a generated 300-AS internet too."""
        network = generate_internet(
            TopogenConfig(n_ases=300, router_detail="none"), seed=4)
        dyn = PeeringDynamics(network, seed=4)
        dyn.reconverge()
        rib = dyn.routing.fast_rib
        for j, dst in enumerate(dyn.traffic.stub_asns[:10]):
            inbound = float(dyn.volumes[:, rib.index.of(dst)].sum())
            assert inbound == pytest.approx(
                float(dyn.traffic.demand[:, j].sum()))
