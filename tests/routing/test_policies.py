"""Tests for Gao-Rexford policy preference and export rules."""

import pytest

from tussle.netsim.topology import Network, Relationship
from tussle.routing.base import ControlPoint, Route
from tussle.routing.policies import (
    GaoRexfordPolicy,
    NeighborClass,
    classify_neighbor,
)

from tests.routing.fakes import OpenPolicy


@pytest.fixture
def net():
    network = Network()
    for asn in (1, 2, 3, 4, 5):
        network.add_as(asn)
    # From AS1's view: 2 is customer, 3 is provider, 4 is peer, 5 unknown.
    network.add_as_relationship(2, 1, Relationship.CUSTOMER_PROVIDER)
    network.add_as_relationship(1, 3, Relationship.CUSTOMER_PROVIDER)
    network.add_as_relationship(1, 4, Relationship.PEER_PEER)
    return network


class TestClassification:
    def test_all_classes(self, net):
        assert classify_neighbor(net, 1, 2) is NeighborClass.CUSTOMER
        assert classify_neighbor(net, 1, 3) is NeighborClass.PROVIDER
        assert classify_neighbor(net, 1, 4) is NeighborClass.PEER
        assert classify_neighbor(net, 1, 5) is NeighborClass.UNKNOWN

    def test_preference_ordering(self):
        assert (NeighborClass.CUSTOMER < NeighborClass.PEER
                < NeighborClass.PROVIDER)


class TestPreference:
    def test_customer_beats_shorter_provider_path(self, net):
        policy = GaoRexfordPolicy()
        via_customer = Route(destination=9, path=(1, 2, 8, 9))
        via_provider = Route(destination=9, path=(1, 3, 9))
        assert policy.prefer(net, 1, via_customer, via_provider) is via_customer

    def test_length_breaks_ties_within_class(self, net):
        policy = GaoRexfordPolicy()
        net.add_as(6)
        net.add_as_relationship(6, 1, Relationship.CUSTOMER_PROVIDER)
        short = Route(destination=9, path=(1, 2, 9))
        long = Route(destination=9, path=(1, 6, 8, 9))
        assert policy.prefer(net, 1, long, short) is short

    def test_next_hop_breaks_final_ties(self, net):
        policy = GaoRexfordPolicy()
        net.add_as(6)
        net.add_as_relationship(6, 1, Relationship.CUSTOMER_PROVIDER)
        a = Route(destination=9, path=(1, 2, 9))
        b = Route(destination=9, path=(1, 6, 9))
        assert policy.prefer(net, 1, b, a) is a  # lower next-hop ASN


class TestExport:
    def test_customer_routes_exported_to_everyone(self, net):
        policy = GaoRexfordPolicy()
        route = Route(destination=9, path=(1, 2, 9))  # learned from customer
        assert policy.may_export(net, 1, route, 3)  # to provider
        assert policy.may_export(net, 1, route, 4)  # to peer
        assert policy.may_export(net, 1, route, 2)  # to customer

    def test_provider_routes_only_to_customers(self, net):
        policy = GaoRexfordPolicy()
        route = Route(destination=9, path=(1, 3, 9))  # learned from provider
        assert policy.may_export(net, 1, route, 2)       # to customer: yes
        assert not policy.may_export(net, 1, route, 4)   # to peer: no
        assert not policy.may_export(net, 1, route, 3)   # to provider: no

    def test_peer_routes_only_to_customers(self, net):
        policy = GaoRexfordPolicy()
        route = Route(destination=9, path=(1, 4, 9))
        assert policy.may_export(net, 1, route, 2)
        assert not policy.may_export(net, 1, route, 3)

    def test_own_prefix_always_exported(self, net):
        policy = GaoRexfordPolicy()
        own = Route(destination=1, path=(1,))
        for neighbor in (2, 3, 4):
            assert policy.may_export(net, 1, own, neighbor)

    def test_open_policy_exports_everything(self, net):
        policy = OpenPolicy()
        route = Route(destination=9, path=(1, 3, 9))
        for neighbor in (2, 3, 4):
            assert policy.may_export(net, 1, route, neighbor)

    def test_open_policy_prefers_shortest(self, net):
        policy = OpenPolicy()
        short = Route(destination=9, path=(1, 3, 9))
        long = Route(destination=9, path=(1, 2, 8, 9))
        assert policy.prefer(net, 1, long, short) is short


class TestControlPoint:
    def test_route_defaults_to_provider_control(self):
        route = Route(destination=2, path=(1, 2))
        assert route.selected_by is ControlPoint.PROVIDER
