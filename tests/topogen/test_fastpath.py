"""Parity gate: converge_fast() must reproduce the scalar fixed point.

Gao-Rexford guarantees a unique stable route selection and both
backends break ties by the same documented total order (class, AS-path
length, lowest next-hop ASN, lexicographic path), so parity is exact:
same paths, same reachability, same transit loads — not approximately,
byte for byte.  The comparison is the shared harness's ``routing`` pair,
which checks ``as_path`` and ``reachable`` for every AS pair, then every
AS's ``transit_load`` and the whole ``reachability_matrix``.
"""

import random
from dataclasses import replace

import pytest

from tussle.errors import RoutingError, ScaleError
from tussle.netsim.topology import Network, Relationship, random_as_graph
from tussle.routing import GaoRexfordPolicy, PathVectorRouting
from tussle.scale.parity import ROUTING, verify
from tussle.scale.vrouting import converge_valley_free
from tussle.topogen import parse_caida

from tests.routing.fakes import OpenPolicy


def routing_case(label):
    return next(case for case in ROUTING.cases() if case.label == label)


def assert_clean(label, seed=0):
    report = verify(ROUTING, routing_case(label), seed)
    assert report.ok, "\n".join(report.mismatches)
    return report


class TestParity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_as_graphs(self, seed):
        assert_clean("random-3x6x12", seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_internets(self, seed):
        assert_clean("topogen-40", seed)

    def test_partitioned_business_graph(self):
        """Unreachable pairs are unreachable in both backends."""
        assert_clean("partitioned")
        rib = converge_valley_free(routing_case("partitioned").spec(0))
        assert rib.reachable(1, 2) and not rib.reachable(1, 10)

    def test_valley_blocked_pair(self):
        """Two providers of one customer cannot reach each other through
        it — the textbook valley both backends must refuse."""
        assert_clean("valley-blocked")
        rib = converge_valley_free(routing_case("valley-blocked").spec(0))
        assert not rib.reachable(2, 3)
        assert not rib.reachable(3, 2)
        assert rib.reachable(2, 1) and rib.reachable(1, 3)


class TestGateHasTeeth:
    def test_hidden_peering_link_is_caught(self):
        """A peering link the fast path never sees must fail the gate."""
        def hide_one_peering(net):
            asn = min(a.asn for a in net.ases if net.peers_of(a.asn))
            net.remove_as_relationship(asn, min(net.peers_of(asn)))
            return ROUTING.fast(net)

        sabotaged = replace(ROUTING, fast=hide_one_peering)
        report = verify(sabotaged, routing_case("random-3x6x12"), seed=0)
        assert not report.ok
        assert report.divergence is not None
        assert {"paths", "reachable"} & set(report.divergence.changed_fields)


class TestRibArrays:
    def setup_method(self):
        self.net = random_as_graph(n_tier1=3, n_tier2=6, n_tier3=12,
                                   rng=random.Random(7))

    def test_destination_subset(self):
        dests = [a.asn for a in self.net.ases if a.tier == 3][:4]
        rib = converge_valley_free(self.net, destinations=dests)
        full = converge_valley_free(self.net)
        for d in dests:
            for a in self.net.ases:
                assert rib.as_path(a.asn, d) == full.as_path(a.asn, d)
        with pytest.raises(ScaleError):
            rib.column_of(dests[0] + 10_000)

    def test_duplicate_destinations_rejected(self):
        asns = [a.asn for a in self.net.ases]
        with pytest.raises(ScaleError):
            converge_valley_free(self.net, destinations=[asns[0], asns[0]])

    def test_path_length_and_counts(self):
        rib = converge_valley_free(self.net)
        asns = [a.asn for a in self.net.ases]
        assert rib.path_length(asns[0], asns[0]) == 0
        counts = rib.reachability_counts()
        assert counts.shape == (len(asns),)
        assert (counts >= 1).all()


class TestGuards:
    def test_siblings_rejected(self):
        net = Network()
        net.add_as(1)
        net.add_as(2)
        net.add_as_relationship(1, 2, Relationship.SIBLING)
        with pytest.raises(ScaleError):
            converge_valley_free(net)

    @staticmethod
    def provider_cycle():
        """1 -> 2 -> 3 -> 1 up the provider edges, with AS 4 above 3.

        The CAIDA loader accepts it: its checks are per pair.
        """
        return parse_caida(["2|1|-1", "3|2|-1", "1|3|-1", "4|3|-1"])

    def test_provider_cycle_rejected(self):
        with pytest.raises(ScaleError, match=r"cycle through AS [123];.*"
                                             r"scalar converge\(\)"):
            converge_valley_free(self.provider_cycle())

    def test_provider_cycle_rejected_by_converge_fast(self):
        with pytest.raises(ScaleError, match=r"cycle through AS [123];"):
            PathVectorRouting(self.provider_cycle()).converge_fast()

    def test_empty_network_rejected(self):
        with pytest.raises(ScaleError):
            converge_valley_free(Network())

    def test_non_gao_rexford_policy_rejected(self):
        net = random_as_graph(rng=random.Random(0))
        proto = PathVectorRouting(net, policy=OpenPolicy())
        with pytest.raises(RoutingError):
            proto.converge_fast()

    def test_announced_routes_unavailable_on_fast_path(self):
        net = random_as_graph(rng=random.Random(0))
        proto = PathVectorRouting(net, policy=GaoRexfordPolicy())
        proto.converge_fast()
        asns = sorted(a.asn for a in net.ases)
        with pytest.raises(RoutingError):
            proto.announced_routes(asns[0], asns[1])

    def test_queries_require_convergence(self):
        proto = PathVectorRouting(random_as_graph(rng=random.Random(0)))
        with pytest.raises(RoutingError):
            proto.routes(1)
