"""Regression pin for the documented deterministic tie-break order.

Selection ranks (class, AS-path length, lowest next-hop ASN,
lexicographic AS path).  The final key is what makes the order *total*:
two routes can share class, length and next hop while differing in
their tails, and without the path key the winner would depend on which
candidate happened to be the incumbent.
"""

from tussle.netsim.topology import Network, Relationship
from tussle.routing.base import Route
from tussle.routing.policies import GaoRexfordPolicy

from tests.routing.fakes import OpenPolicy


def two_provider_net():
    net = Network()
    net.add_as(1)
    net.add_as(2)
    net.add_as_relationship(1, 2, Relationship.CUSTOMER_PROVIDER)
    return net


class TestTotalOrder:
    def test_same_next_hop_breaks_on_path(self):
        net = two_provider_net()
        policy = GaoRexfordPolicy()
        low = Route(destination=5, path=(1, 2, 3, 5))
        high = Route(destination=5, path=(1, 2, 4, 5))
        assert policy.prefer(net, 1, low, high) == low
        # Order-independent: swapping the incumbent changes nothing.
        assert policy.prefer(net, 1, high, low) == low

    def test_open_policy_same_tiebreak(self):
        net = two_provider_net()
        policy = OpenPolicy()
        low = Route(destination=5, path=(1, 2, 3, 5))
        high = Route(destination=5, path=(1, 2, 4, 5))
        assert policy.prefer(net, 1, low, high) == low
        assert policy.prefer(net, 1, high, low) == low

    def test_class_still_dominates_length(self):
        """A longer customer route beats a shorter provider route."""
        net = Network()
        for asn in (1, 2, 3, 4):
            net.add_as(asn)
        net.add_as_relationship(2, 1, Relationship.CUSTOMER_PROVIDER)  # 2 is 1's customer
        net.add_as_relationship(1, 3, Relationship.CUSTOMER_PROVIDER)  # 3 is 1's provider
        policy = GaoRexfordPolicy()
        via_customer = Route(destination=9, path=(1, 2, 4, 9))
        via_provider = Route(destination=9, path=(1, 3, 9))
        assert policy.prefer(net, 1, via_provider, via_customer) == via_customer

    def test_next_hop_still_dominates_path(self):
        net = Network()
        for asn in (1, 2, 3):
            net.add_as(asn)
        net.add_as_relationship(1, 2, Relationship.CUSTOMER_PROVIDER)
        net.add_as_relationship(1, 3, Relationship.CUSTOMER_PROVIDER)
        policy = GaoRexfordPolicy()
        low_hop = Route(destination=9, path=(1, 2, 8, 9))
        high_hop = Route(destination=9, path=(1, 3, 7, 9))
        assert policy.prefer(net, 1, high_hop, low_hop) == low_hop
