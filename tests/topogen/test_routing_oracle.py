"""An independent routing oracle where the fast path actually runs.

The ``routing`` parity pair stops at topogen-40 because the scalar
``converge()`` takes minutes at 10^3 ASes.  This oracle is a plain
Python Gao-Rexford BFS per destination, written against the
:class:`~tussle.netsim.topology.Network` API only, O(E) per column.  It
settles routes in (class, length, next-hop ASN) order:

1. customer routes climb provider edges one length at a time, each new
   holder taking its lowest-ASN customer of the previous length;
2. an AS without one takes the shortest customer route a peer holds,
   lowest peer ASN on a tie;
3. provider routes descend customer edges in length order from every
   routed AS, each new holder taking its lowest-ASN provider of the
   shortest length.

Sixteen seeded columns of the T01, T02 and P01 internets, and of every
P02 reconvergence (the incremental path), must match it cell for cell,
and ``levels`` must match the formula applied to the oracle's routes.
"""

import random
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest

import tussle.routing.pathvector as pathvector
from tussle.experiments import run_p02
from tussle.netsim.topology import Network
from tussle.scale.vrouting import (
    CLASS_CUSTOMER,
    CLASS_NONE,
    CLASS_PEER,
    CLASS_PROVIDER,
    converge_valley_free,
)
from tussle.topogen import TopogenConfig, generate_internet

#: asn -> (class, length, next-hop ASN) for every AS holding a route.
Column = Dict[int, Tuple[int, int, int]]

SAMPLE = 16


class GaoRexfordOracle:
    def __init__(self, network: Network):
        self.asns = [a.asn for a in network.ases]
        self.providers = {a: sorted(network.providers_of(a))
                          for a in self.asns}
        self.customers = {a: sorted(network.customers_of(a))
                          for a in self.asns}
        self.peers = {a: sorted(network.peers_of(a)) for a in self.asns}

    def column(self, dst: int) -> Column:
        routes: Column = {dst: (CLASS_CUSTOMER, 0, dst)}
        frontier, length = [dst], 0
        while frontier:
            length += 1
            offers: Dict[int, int] = {}
            for via in frontier:  # ascending, so the first offer is best
                for provider in self.providers[via]:
                    if provider not in routes:
                        offers.setdefault(provider, via)
            for asn, via in offers.items():
                routes[asn] = (CLASS_CUSTOMER, length, via)
            frontier = sorted(offers)
        lateral: Column = {}
        for asn in self.asns:
            if asn in routes:
                continue
            heard = [(routes[p][1] + 1, p) for p in self.peers[asn]
                     if p in routes and routes[p][0] == CLASS_CUSTOMER]
            if heard:
                lateral[asn] = (CLASS_PEER,) + min(heard)
        routes.update(lateral)
        by_length: Dict[int, List[int]] = {}
        for asn, (_, hops, _) in routes.items():
            by_length.setdefault(hops, []).append(asn)
        length = 0
        while length <= max(by_length):
            offers = {}
            for via in sorted(by_length.get(length, ())):
                for customer in self.customers[via]:
                    if customer not in routes:
                        offers.setdefault(customer, via)
            for asn, via in offers.items():
                routes[asn] = (CLASS_PROVIDER, length + 1, via)
                by_length.setdefault(length + 1, []).append(asn)
            length += 1
        return routes


def oracle_levels(network: Network, columns: Sequence[Column]) -> int:
    """``RibArrays.levels`` for these columns, from the oracle's routes."""
    routes = [route for column in columns for route in column.values()]
    has_customer_edges = any(network.providers_of(a.asn)
                             for a in network.ases)
    has_peer_edges = any(network.peers_of(a.asn) for a in network.ases)
    longest = max(hops for cls, hops, _ in routes if cls == CLASS_CUSTOMER)
    provider_lengths = {hops for cls, hops, _ in routes
                        if cls == CLASS_PROVIDER}
    levels = ((longest + 1 if has_customer_edges and columns else 0)
              + int(has_peer_edges) + len(provider_lengths))
    return max(levels, 1)


def sample(destinations: Sequence[int], seed: int) -> List[int]:
    return sorted(random.Random(seed).sample(list(destinations),
                                             min(SAMPLE, len(destinations))))


def assert_matches_oracle(network: Network, rib, dests: Sequence[int]):
    oracle = GaoRexfordOracle(network)
    expected_cls = np.full(len(rib.index), CLASS_NONE)
    for dst in dests:
        column = rib.column_of(dst)
        routes = oracle.column(dst)
        expected_cls[:] = CLASS_NONE
        for row, asn in enumerate(rib.index.asns.tolist()):
            cls, hops, via = routes.get(asn, (CLASS_NONE, -1, None))
            expected_cls[row] = cls
            assert rib.plen[row, column] == hops, (asn, dst)
            nhop = int(rib.nhop[row, column])
            assert (None if nhop < 0 else int(rib.index.asns[nhop])) == via, \
                (asn, dst)
        np.testing.assert_array_equal(rib.cls[:, column], expected_cls,
                                      err_msg=f"destination {dst}")
    return oracle


def internet(n_ases: int, seed: int) -> Network:
    return generate_internet(TopogenConfig(n_ases=n_ases,
                                           router_detail="none"), seed=seed)


class TestExperimentInternets:
    @pytest.mark.parametrize("n_ases, seed", [
        (1000, 0),  # T01 (and the P02 graph before bargaining)
        (1000, 1),
        (60, 0),  # T02
        (1000, 2),  # T02 at 10^3
        (120, 0),  # P01
        (120, 3),
    ])
    def test_sampled_columns_and_levels(self, n_ases, seed):
        net = internet(n_ases, seed)
        dests = sample([a.asn for a in net.ases], seed)
        rib = converge_valley_free(net, dests)
        oracle = assert_matches_oracle(net, rib, dests)
        assert rib.levels == oracle_levels(
            net, [oracle.column(d) for d in dests])
        # The full RIB's columns are the same routes.
        full = converge_valley_free(net)
        for dst in dests:
            np.testing.assert_array_equal(full.nhop[:, full.column_of(dst)],
                                          rib.nhop[:, rib.column_of(dst)])


class TestOracleHasTeeth:
    def test_a_hidden_peer_edge_is_caught(self):
        net = internet(120, 0)
        stubs = [a.asn for a in net.ases if a.tier == 3]
        rib = converge_valley_free(net, stubs)
        asn = min(a.asn for a in net.ases
                  if a.tier == 2 and net.peers_of(a.asn))
        net.remove_as_relationship(asn, min(net.peers_of(asn)))
        with pytest.raises(AssertionError):
            assert_matches_oracle(net, rib, stubs)


@pytest.mark.slow
def test_every_p02_reconvergence_matches_the_oracle(monkeypatch):
    """Seed 0, 10^3 ASes: every step, incremental ones included."""
    real = pathvector.converge_valley_free
    steps = []

    def checked(network, destinations=None, previous=None):
        rib = real(network, destinations, previous=previous)
        dests = sample(rib.dest_asns, len(steps))
        oracle = assert_matches_oracle(network, rib, dests)
        assert real(network, dests).levels == oracle_levels(
            network, [oracle.column(d) for d in dests])
        steps.append(previous is not None)
        return rib

    monkeypatch.setattr(pathvector, "converge_valley_free", checked)
    run_p02(seed=0)
    assert len(steps) == 6 and all(steps[1:])
