"""Tests for path-vector routing with Gao-Rexford policy."""

import random

import pytest

from tussle.errors import RoutingError
from tussle.netsim.topology import Network, Relationship, random_as_graph
from tussle.routing.base import Route
from tussle.routing.pathvector import PathVectorRouting
from tussle.routing.policies import GaoRexfordPolicy

from tests.routing.fakes import OpenPolicy


def chain_network():
    """AS1 <- customer of AS2 <- customer of AS3; AS4 peers with AS2."""
    net = Network()
    for asn in (1, 2, 3, 4):
        net.add_as(asn)
    net.add_as_relationship(1, 2, Relationship.CUSTOMER_PROVIDER)
    net.add_as_relationship(2, 3, Relationship.CUSTOMER_PROVIDER)
    net.add_as_relationship(2, 4, Relationship.PEER_PEER)
    return net


class TestConvergence:
    def test_converges_on_chain(self):
        proto = PathVectorRouting(chain_network())
        iterations = proto.converge()
        assert 1 <= iterations <= 10

    def test_full_reachability_on_chain(self):
        proto = PathVectorRouting(chain_network())
        proto.converge()
        for src in (1, 2, 3):
            for dst in (1, 2, 3):
                assert proto.reachable(src, dst)

    def test_reading_before_convergence_rejected(self):
        proto = PathVectorRouting(chain_network())
        with pytest.raises(RoutingError):
            proto.routes(1)

    def test_converges_on_random_hierarchy(self):
        net = random_as_graph(rng=random.Random(3))
        proto = PathVectorRouting(net)
        proto.converge()
        # Everything should reach everything in a connected hierarchy.
        matrix = proto.reachability_matrix()
        assert all(matrix.values())


class TestValleyFree:
    def test_peer_routes_not_exported_to_peers(self):
        """AS4 (peer of AS2) must not learn AS3 routes through AS2."""
        proto = PathVectorRouting(chain_network())
        proto.converge()
        # AS2 learns AS3 from its provider; exporting to peer AS4 would be
        # a valley. AS4 therefore cannot reach AS3.
        assert not proto.reachable(4, 3)

    def test_customer_routes_exported_everywhere(self):
        proto = PathVectorRouting(chain_network())
        proto.converge()
        # AS1 is AS2's customer: AS4 (peer) and AS3 (provider) learn it.
        assert proto.reachable(4, 1)
        assert proto.reachable(3, 1)

    def test_prefer_customer_over_peer_route(self):
        net = Network()
        for asn in (1, 2, 3):
            net.add_as(asn)
        # Destination 3 is reachable from 1 both via customer and peer.
        net.add_as_relationship(3, 1, Relationship.CUSTOMER_PROVIDER)  # 3 customer of 1
        net.add_as_relationship(1, 2, Relationship.PEER_PEER)
        net.add_as_relationship(3, 2, Relationship.CUSTOMER_PROVIDER)  # 3 customer of 2
        proto = PathVectorRouting(net)
        proto.converge()
        # AS1 should use its direct customer route to 3.
        assert proto.as_path(1, 3) == (1, 3)

    def test_open_policy_gives_peer_transit(self):
        proto = PathVectorRouting(chain_network(), policy=OpenPolicy())
        proto.converge()
        # Without export restrictions AS4 reaches AS3 through AS2.
        assert proto.reachable(4, 3)
        assert proto.as_path(4, 3) == (4, 2, 3)


class TestAnnouncementsAndLoad:
    def test_announcements_recorded(self):
        proto = PathVectorRouting(chain_network())
        proto.converge()
        announced = proto.announced_routes(2, 3)
        assert 1 in announced  # AS2 announces its customer AS1 to provider AS3

    def test_no_loops_in_selected_paths(self):
        net = random_as_graph(rng=random.Random(9))
        proto = PathVectorRouting(net)
        proto.converge()
        for asn in (a.asn for a in net.ases):
            for route in proto.routes(asn).values():
                assert len(set(route.path)) == len(route.path)

    def test_transit_load_counts_middle_hops(self):
        proto = PathVectorRouting(chain_network())
        proto.converge()
        # AS2 sits between 1 and 3 (both directions) and between 4 and 1.
        assert proto.transit_load(2) >= 3
        # Stub AS1 carries no transit.
        assert proto.transit_load(1) == 0


class TestRouteObject:
    def test_route_validates_destination(self):
        with pytest.raises(RoutingError):
            Route(destination=5, path=(1, 2))

    def test_route_rejects_loops(self):
        with pytest.raises(RoutingError):
            Route(destination=1, path=(1, 2, 1))

    def test_route_properties(self):
        route = Route(destination=3, path=(1, 2, 3))
        assert route.length == 2
        assert route.next_hop == 2
        assert route.through(2)
        assert not route.through(1)
        assert not route.through(3)

    def test_local_route(self):
        route = Route(destination=1, path=(1,))
        assert route.length == 0
        assert route.next_hop == 1
