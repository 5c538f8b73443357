"""Edge cases of the peering fixed-point loop (ISSUE 10 satellite).

Degenerate internets must bargain trivially, pathological bargaining
must terminate with a structured verdict instead of hanging, and a
depeered (embargoed) link must never sneak back into the valley-free
RIB — cross-checked against :func:`tussle.routing.policies.is_valley_free`.
"""

import pytest

from tussle.errors import PeeringError
from tussle.netsim.topology import Network, Relationship
from tussle.peering import (
    AgreementKind,
    PeeringAgreement,
    PeeringDynamics,
    customer_cones,
)
from tussle.routing import is_valley_free
from tussle.topogen import TopogenConfig, generate_internet


def _ixp_mesh() -> Network:
    """Two tier-2s at one IXP, two stubs each, one tier-1 above."""
    network = Network()
    network.add_as(100, tier=1)
    network.add_as(10, tier=2, ixps=["ix"])
    network.add_as(20, tier=2, ixps=["ix"])
    for stub, provider in ((1, 10), (2, 10), (3, 20), (4, 20)):
        network.add_as(stub, tier=3)
        network.add_as_relationship(stub, provider,
                                    Relationship.CUSTOMER_PROVIDER)
    network.add_as_relationship(10, 100, Relationship.CUSTOMER_PROVIDER)
    network.add_as_relationship(20, 100, Relationship.CUSTOMER_PROVIDER)
    return network


class _FlipFlopDynamics(PeeringDynamics):
    """Pathological bargaining: every live peering looks worthless at
    the table, every candidate looks irresistible — depeer/repeer
    forever.  Models a forecast/measurement disagreement that refusal
    memory normally dampens."""

    def evaluate_existing(self, pair):
        return None

    def evaluate_candidate(self, pair):
        return PeeringAgreement(
            a=pair[0], b=pair[1], kind=AgreementKind.SETTLEMENT_FREE,
            transfer=0.0, surplus=1.0, savings_a=1.0, savings_b=1.0)


class TestOscillation:
    def test_flipflop_pair_hits_the_cap_with_a_structured_verdict(self):
        dyn = _FlipFlopDynamics(_ixp_mesh(), seed=0, max_iterations=6,
                                refusal_memory=False)
        result = dyn.run()  # must return, not hang
        assert not result.converged
        assert result.oscillating
        assert result.verdict == "oscillation"
        assert result.iterations == 6
        assert len(result.history) == 6
        # The cycle is on record: the pair flips between peered and not.
        flips = [rec.peered + rec.depeered for rec in result.history]
        assert all(f > 0 for f in flips)
        # And the verdict serialises like any other result.
        assert result.to_dict()["verdict"] == "oscillation"

    def test_refusal_memory_dampens_the_same_economics(self):
        """With the stabiliser on, a dropped pair stays dropped."""
        dyn = _FlipFlopDynamics(_ixp_mesh(), seed=0, max_iterations=6,
                                refusal_memory=True)
        result = dyn.run()
        assert result.converged
        assert result.verdict == "fixed-point"


class TestDegenerateInternets:
    def test_single_as_bargains_trivially(self):
        network = Network()
        network.add_as(1, tier=3)
        dyn = PeeringDynamics(network, seed=0)
        result = dyn.run()
        assert result.converged
        assert result.iterations == 1
        assert result.agreements == {}
        assert dyn.traffic.total == 0.0

    def test_all_transit_no_stub_internet(self):
        network = Network()
        network.add_as(100, tier=1)
        network.add_as(10, tier=2, ixps=["ix"])
        network.add_as(20, tier=2, ixps=["ix"])
        network.add_as_relationship(10, 100, Relationship.CUSTOMER_PROVIDER)
        network.add_as_relationship(20, 100, Relationship.CUSTOMER_PROVIDER)
        dyn = PeeringDynamics(network, seed=0)
        result = dyn.run()
        # No demand -> no surplus -> nothing to peer over.
        assert result.converged
        assert result.agreements == {}

    def test_no_ixp_topology_has_no_candidates(self):
        network = _ixp_mesh()
        for asn in (10, 20):
            network.autonomous_system(asn).metadata.pop("ixps")
        dyn = PeeringDynamics(network, seed=0)
        assert dyn.candidate_pairs() == []
        result = dyn.run()
        assert result.converged
        assert result.iterations == 1
        assert result.agreements == {}

    def test_ixp_mesh_does_bargain(self):
        """The degenerate cases above are meaningful only because the
        same mesh *with* the IXP does strike a deal."""
        dyn = PeeringDynamics(_ixp_mesh(), seed=0)
        result = dyn.run()
        assert (10, 20) in result.agreements

    def test_tier1_clique_is_not_depeerable(self):
        network = Network()
        network.add_as(1, tier=1)
        network.add_as(2, tier=1)
        network.add_as(3, tier=3)
        network.add_as(4, tier=3)
        network.add_as_relationship(1, 2, Relationship.PEER_PEER)
        network.add_as_relationship(3, 1, Relationship.CUSTOMER_PROVIDER)
        network.add_as_relationship(4, 2, Relationship.CUSTOMER_PROVIDER)
        dyn = PeeringDynamics(network, seed=0)
        with pytest.raises(PeeringError):
            dyn.depeer(1, 2)

    def test_depeering_non_peers_is_rejected(self):
        dyn = PeeringDynamics(_ixp_mesh(), seed=0)
        with pytest.raises(PeeringError):
            dyn.depeer(1, 10)  # customer-provider, not peers


class TestStaleHierarchy:
    """Cones and candidate bargains are fixed at construction, so a
    customer/provider edge or an AS added afterwards must stop the loop
    instead of letting it bargain on the old hierarchy."""

    @pytest.fixture
    def settled(self):
        network = generate_internet(
            TopogenConfig(n_ases=120, router_detail="none"), seed=1)
        dyn = PeeringDynamics(network, seed=1)
        assert dyn.run().verdict == "fixed-point"
        return dyn

    def test_new_customer_provider_edge_is_refused(self, settled):
        network = settled.network
        stub = min(a.asn for a in network.ases if a.tier == 3)
        transit = min(a.asn for a in network.ases if a.tier == 2
                      and network.relationship(stub, a.asn) is None)
        network.add_as_relationship(stub, transit,
                                    Relationship.CUSTOMER_PROVIDER)
        # The cone the dynamics holds no longer matches the graph.
        assert not (customer_cones(network)[transit]
                    == settled._cones[transit]).all()
        with pytest.raises(PeeringError, match="hierarchy changed"):
            settled.run()

    def test_new_as_is_refused(self, settled):
        settled.network.add_as(10**6, tier=3)
        with pytest.raises(PeeringError, match="hierarchy changed"):
            settled.reconverge()

    def test_peer_changes_are_the_loops_own(self, settled):
        pair = next(p for p in settled._peer_pairs() if settled._mutable(p))
        settled.depeer(*pair)
        assert settled.run().verdict == "fixed-point"


class TestDepeeredLinkStaysDown:
    @pytest.fixture(scope="class")
    def war(self):
        network = generate_internet(
            TopogenConfig(n_ases=120, router_detail="none"), seed=2)
        dyn = PeeringDynamics(network, seed=2)
        initial = dyn.run()
        rib = dyn.routing.fast_rib
        busiest, busiest_volume = None, -1.0
        for pair in sorted(initial.agreements):
            ra, rb = rib.index.of(pair[0]), rib.index.of(pair[1])
            volume = float(dyn.volumes[ra, rb] + dyn.volumes[rb, ra])
            if volume > busiest_volume:
                busiest, busiest_volume = pair, volume
        dyn.depeer(*busiest)
        dyn.run()
        return dyn, busiest

    def test_depeered_edge_never_reappears_in_the_rib(self, war):
        dyn, (a, b) = war
        routing = dyn.routing
        crossings = 0
        for src in dyn.traffic.stub_asns:
            for dst in dyn.traffic.stub_asns:
                if src == dst:
                    continue
                path = routing.as_path(src, dst)
                assert path is not None, "war must not break reachability"
                for hop, nxt in zip(path, path[1:]):
                    assert {hop, nxt} != {a, b}, \
                        f"embargoed edge {a}-{b} used by {path}"
                crossings += 1
        assert crossings == len(dyn.traffic.stub_asns) \
            * (len(dyn.traffic.stub_asns) - 1)

    def test_postwar_paths_are_valley_free(self, war):
        dyn, _ = war
        sample = dyn.traffic.stub_asns[:12]
        checked = 0
        for src in sample:
            for dst in sample:
                if src == dst:
                    continue
                path = dyn.routing.as_path(src, dst)
                assert is_valley_free(dyn.network, path), path
                checked += 1
        assert checked == len(sample) * (len(sample) - 1)

    def test_war_preserves_cone_reachability_economics(self, war):
        """The exclusive cones still exchange demand — via transit."""
        dyn, (a, b) = war
        cones = customer_cones(dyn.network)
        rib = dyn.routing.fast_rib
        assert float((rib.cls != 3).mean()) == 1.0
        assert cones[a].any() and cones[b].any()
