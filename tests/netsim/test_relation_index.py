"""``Network.relation_index`` against the per-AS walks it replaced.

The index is the one array view of the business graph that the
valley-free fast path, the volume and account passes and the bargaining
loop read.  Its arrays must equal what a plain-Python walk over the
per-AS relationship sets builds, on generated internets and after a
seeded run of every mutator; the bargaining loop's pair lists must
equal the comprehensions they replaced; and every mutator must move the
version the index is keyed on.  The fast path must keep rejecting
siblings, doubly-related pairs and customer/provider cycles with the
messages the walk raised.
"""

import random

import numpy as np
import pytest

from tests.peering.test_rib_layout_oracle import reference_edge_arrays
from tussle.errors import PeeringError, ScaleError, TopologyError
from tussle.netsim.topology import ASIndex, Network, Relationship, isin_sorted
from tussle.peering import PeeringDynamics, customer_cones
from tussle.scale.vrouting import converge_valley_free
from tussle.topogen import TopogenConfig, generate_internet

C2P = Relationship.CUSTOMER_PROVIDER
PEER = Relationship.PEER_PEER
SIBLING = Relationship.SIBLING


# ----------------------------------------------------------------------
# Oracles: the per-AS walks as they were.
# ----------------------------------------------------------------------
def reference_siblings(network, index):
    src, dst = [], []
    for autonomous in network.ases:
        for sibling in sorted(network.siblings_of(autonomous.asn)):
            src.append(index.of(sibling))
            dst.append(index.of(autonomous.asn))
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


def reference_peer_pairs(network):
    return sorted((autonomous.asn, peer)
                  for autonomous in network.ases
                  for peer in network.peers_of(autonomous.asn)
                  if autonomous.asn < peer)


def reference_candidate_pairs(dyn):
    at_ixp = {}
    for autonomous in dyn.network.ases:
        for ixp in sorted(autonomous.metadata.get("ixps", ())):
            at_ixp.setdefault(ixp, []).append(autonomous.asn)
    candidates = set()
    for ixp in sorted(at_ixp):
        members = sorted(at_ixp[ixp])
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pair = (a, b)
                if pair in dyn.embargo or not dyn._mutable(pair):
                    continue
                if dyn.refusal_memory and pair in dyn.refused:
                    continue
                if dyn.network.relationship(a, b) is not None:
                    continue
                candidates.add(pair)
    return sorted(candidates)


def reference_fast_path_error(network):
    """The message the per-AS walk of the fast path raised, if any."""
    for autonomous in network.ases:
        asn = autonomous.asn
        if network.siblings_of(asn):
            return (f"AS {asn} has sibling relationships; the valley-free "
                    f"fast path supports customer/provider and peer edges "
                    f"only (use the scalar converge())")
        providers, peers = network.providers_of(asn), network.peers_of(asn)
        if providers & peers:
            other = min(providers & peers)
            pair = (min(asn, other), max(asn, other))
            return f"ASes {pair} carry two relationship kinds"
    return None


def assert_index_matches_walk(network):
    relations = network.relation_index()
    index = ASIndex([a.asn for a in network.ases])
    assert relations.index.asns.tobytes() == index.asns.tobytes()
    cust, prov, peer_src, peer_dst = reference_edge_arrays(network, index)
    sibling_src, sibling_dst = reference_siblings(network, index)
    for name, expected in (("customer", cust), ("provider", prov),
                           ("peer_src", peer_src), ("peer_dst", peer_dst),
                           ("sibling_src", sibling_src),
                           ("sibling_dst", sibling_dst)):
        array = getattr(relations, name)
        assert array.dtype == np.int64, name
        assert array.tobytes() == expected.tobytes(), name
        assert not array.flags.writeable, name
    assert relations.pays_transit.tolist() == [
        bool(network.providers_of(a.asn)) for a in network.ases]


def internet(n_ases, seed):
    return generate_internet(
        TopogenConfig(n_ases=n_ases, router_detail="none"), seed=seed)


# ----------------------------------------------------------------------
# Generated internets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_ases", [120, 1000])
@pytest.mark.parametrize("seed", range(5))
def test_index_equals_the_walk_on_generated_internets(n_ases, seed):
    network = internet(n_ases, seed)
    assert_index_matches_walk(network)
    dyn = PeeringDynamics(network, seed=seed)
    assert dyn._peer_pairs() == reference_peer_pairs(network)
    assert dyn.candidate_pairs() == reference_candidate_pairs(dyn)


@pytest.mark.parametrize("seed", range(3))
def test_pair_lists_track_a_bargaining_run(seed):
    """Embargoes, refusals and re-peering all move the candidate list."""
    network = internet(120, seed)
    for refusal_memory in (True, False):
        dyn = PeeringDynamics(network, seed=seed,
                              refusal_memory=refusal_memory,
                              max_iterations=3)
        for iteration in range(1, 4):
            dyn.step(iteration)
            assert dyn._peer_pairs() == reference_peer_pairs(network)
            assert dyn.candidate_pairs() == reference_candidate_pairs(dyn)
        pair = next(p for p in dyn._peer_pairs() if dyn._mutable(p))
        dyn.depeer(*pair)
        assert pair in dyn.embargo
        assert dyn.candidate_pairs() == reference_candidate_pairs(dyn)
        dyn.lift_embargo(*pair)
        assert dyn.candidate_pairs() == reference_candidate_pairs(dyn)


# ----------------------------------------------------------------------
# Mutators
# ----------------------------------------------------------------------
def random_mutation(network, rng, next_asn):
    """Apply one seeded mutator call; returns (kind, touches hierarchy)."""
    asns = [a.asn for a in network.ases]
    op = rng.choice(["add_as", "add_c2p", "add_peer", "add_sibling",
                     "remove_c2p", "remove_peer", "remove_sibling"])
    if op == "add_as":
        network.add_as(next_asn, tier=rng.choice([2, 3]))
        return op, True
    if op.startswith("add"):
        rel = {"add_c2p": C2P, "add_peer": PEER, "add_sibling": SIBLING}[op]
        while True:
            a, b = rng.sample(asns, 2)
            if network.relationship(a, b) is None:
                network.add_as_relationship(a, b, rel)
                return op, rel is C2P
    table = {"remove_c2p": network.providers_of,
             "remove_peer": network.peers_of,
             "remove_sibling": network.siblings_of}[op]
    related = [(a, b) for a in asns for b in sorted(table(a))]
    if not related:
        return None, False
    a, b = rng.choice(related)
    assert network.remove_as_relationship(a, b) is not None
    return op, op == "remove_c2p"


@pytest.mark.parametrize("seed", range(3))
def test_index_tracks_a_seeded_mutation_sequence(seed):
    network = internet(120, seed)
    rng = random.Random(seed)
    next_asn = max(a.asn for a in network.ases) + 1
    kinds = set()
    for _ in range(80):
        before = network.relation_index()
        kind, hierarchy = random_mutation(network, rng, next_asn)
        if kind is None:
            continue
        kinds.add(kind)
        next_asn += kind == "add_as"
        after = network.relation_index()
        assert after.version > before.version
        assert (after.hierarchy_version > before.hierarchy_version) \
            == hierarchy
        if not hierarchy:
            # Peer and sibling changes keep the hierarchy part itself.
            assert after.index is before.index
            assert after.customer is before.customer
            assert after.pays_transit is before.pays_transit
        assert_index_matches_walk(network)
        assert network.relation_index() is after
    assert kinds == {"add_as", "add_c2p", "add_peer", "add_sibling",
                     "remove_c2p", "remove_peer", "remove_sibling"}


def test_every_mutator_moves_the_version():
    network = Network()
    versions = [network.relation_index().version]

    def moved():
        versions.append(network.relation_index().version)
        return versions[-1] > versions[-2]

    network.add_as(1)
    assert moved()
    network.add_as(2)
    network.add_as(3)
    for rel in (C2P, PEER, SIBLING):
        network.add_as_relationship(1, 2, rel)
        assert moved()
        network.remove_as_relationship(1, 2)
        assert moved()
    network.add_node("r", asn=4)  # registers AS 4
    assert moved()
    network.add_node("h")  # no AS: nothing to rebuild
    assert not moved()


# ----------------------------------------------------------------------
# Accessors hand out the stored set, read-only
# ----------------------------------------------------------------------
class TestAccessors:
    def test_returned_sets_cannot_be_mutated(self):
        network = Network()
        for asn in (1, 2, 3):
            network.add_as(asn)
        network.add_as_relationship(1, 2, C2P)
        network.add_as_relationship(1, 3, PEER)
        for accessor in (network.providers_of, network.customers_of,
                         network.peers_of, network.siblings_of,
                         network.as_neighbors):
            held = accessor(1)
            with pytest.raises(AttributeError):
                held.add(99)
            with pytest.raises(AttributeError):
                held.discard(2)

    def test_next_call_sees_a_mutators_change(self):
        network = Network()
        for asn in (1, 2, 3):
            network.add_as(asn)
        held = network.peers_of(1)
        network.add_as_relationship(1, 2, PEER)
        assert held == frozenset() and network.peers_of(1) == {2}
        network.add_as_relationship(3, 1, C2P)
        assert network.customers_of(1) == {3}
        assert network.providers_of(3) == {1}
        network.remove_as_relationship(1, 2)
        assert network.peers_of(1) == frozenset()
        network.remove_as_relationship(1, 3)
        assert network.customers_of(1) == frozenset()
        assert network.providers_of(3) == frozenset()

    def test_unknown_as_still_raises(self):
        network = Network()
        for accessor in (network.providers_of, network.customers_of,
                         network.peers_of, network.siblings_of):
            with pytest.raises(TopologyError, match="unknown AS 7"):
                accessor(7)

    def test_ases_are_sorted_and_follow_add_as(self):
        network = Network()
        for asn in (5, 1, 3):
            network.add_as(asn)
        first = network.ases
        assert [a.asn for a in first] == [1, 3, 5]
        assert network.ases is first  # not re-sorted per access
        network.add_as(2)
        assert [a.asn for a in network.ases] == [1, 2, 3, 5]


# ----------------------------------------------------------------------
# What the fast path rejects, and with which message
# ----------------------------------------------------------------------
def _valley():
    """Two stubs under AS 10 and AS 20, both under AS 100."""
    network = Network()
    for asn in (1, 2, 10, 20, 100):
        network.add_as(asn)
    for customer, provider in ((1, 10), (2, 20), (10, 100), (20, 100)):
        network.add_as_relationship(customer, provider, C2P)
    return network


def _assert_same_rejection(network):
    expected = reference_fast_path_error(network)
    assert expected is not None
    with pytest.raises(ScaleError) as raised:
        converge_valley_free(network)
    assert str(raised.value) == expected


class TestRejections:
    def test_sibling(self):
        network = _valley()
        network.add_as_relationship(10, 20, SIBLING)
        _assert_same_rejection(network)

    def test_doubly_related_pair(self):
        network = _valley()
        network.add_as_relationship(1, 10, PEER)
        _assert_same_rejection(network)

    @pytest.mark.parametrize("sibling", [(1, 2), (10, 20), (20, 100)])
    def test_lowest_offender_first_and_a_sibling_before_an_overlap(
            self, sibling):
        """AS 10 carries an overlap (AS 100 is its provider and peer);
        the first sibling sits below it in ASN order, at it, or above
        it, so the sibling, the sibling again and then the overlap is
        reported."""
        network = _valley()
        network.add_as_relationship(20, 10, PEER)
        network.add_as_relationship(10, 100, PEER)
        network.add_as_relationship(*sibling, SIBLING)
        _assert_same_rejection(network)

    def test_customer_provider_cycle(self):
        network = Network()
        for asn in (1, 2, 3, 4):
            network.add_as(asn)
        for customer, provider in ((2, 3), (3, 4), (4, 2), (1, 2)):
            network.add_as_relationship(customer, provider, C2P)
        with pytest.raises(ScaleError) as raised:
            converge_valley_free(network)
        assert str(raised.value) == (
            "customer/provider edges form a cycle through AS 2; the "
            "valley-free fast path needs an acyclic provider hierarchy "
            "(use the scalar converge())")
        with pytest.raises(PeeringError) as raised:
            customer_cones(network)
        assert str(raised.value) == ("customer/provider edges contain a "
                                     "cycle; customer cones are undefined")


@pytest.mark.parametrize("values, table", [
    ([], []),
    ([3, 1, 7], []),
    ([0, 5, 9, 10, 12, -1], [0, 5, 10]),
    ([2, 2, 4], [2, 2, 3]),
])
def test_isin_sorted_is_isin(values, table):
    values = np.array(values, dtype=np.int64)
    table = np.array(table, dtype=np.int64)
    assert isin_sorted(values, table).tolist() \
        == np.isin(values, table).tolist()
