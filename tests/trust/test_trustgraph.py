"""Tests for the trust graph and propagation."""

import pytest

from tussle.errors import TrustError
from tussle.trust.trustgraph import TrustGraph


class TestEdges:
    def test_set_and_get(self):
        graph = TrustGraph()
        graph.set_trust("a", "b", 0.8)
        assert graph.direct_trust("a", "b") == 0.8
        assert graph.direct_trust("b", "a") is None  # directional

    def test_score_bounds(self):
        graph = TrustGraph()
        with pytest.raises(TrustError):
            graph.set_trust("a", "b", 1.5)
        with pytest.raises(TrustError):
            graph.set_trust("a", "b", -0.1)

    def test_self_trust_rejected(self):
        with pytest.raises(TrustError):
            TrustGraph().set_trust("a", "a", 1.0)

    def test_parties_tracked(self):
        graph = TrustGraph()
        graph.set_trust("a", "b", 0.5)
        assert graph.parties == ["a", "b"]


class TestPropagation:
    def test_self_trust_is_one(self):
        assert TrustGraph().trust("a", "a") == 1.0

    def test_unreachable_is_zero(self):
        graph = TrustGraph()
        graph.set_trust("a", "b", 0.9)
        assert graph.trust("a", "z") == 0.0

    def test_two_hop_chain_decays(self):
        graph = TrustGraph(decay=0.8)
        graph.set_trust("a", "b", 0.9)
        graph.set_trust("b", "c", 0.9)
        assert graph.trust("a", "c") == pytest.approx(0.9 * 0.9 * 0.8)

    def test_direct_edge_beats_weak_chain(self):
        graph = TrustGraph()
        graph.set_trust("a", "c", 0.7)
        graph.set_trust("a", "b", 0.9)
        graph.set_trust("b", "c", 0.5)
        assert graph.trust("a", "c") == 0.7

    def test_strong_chain_beats_weak_direct(self):
        graph = TrustGraph(decay=1.0)
        graph.set_trust("a", "c", 0.1)
        graph.set_trust("a", "b", 0.95)
        graph.set_trust("b", "c", 0.95)
        assert graph.trust("a", "c") == pytest.approx(0.95 * 0.95)

    def test_max_hops_bounds_chains(self):
        graph = TrustGraph(decay=1.0, max_hops=2)
        graph.set_trust("a", "b", 1.0)
        graph.set_trust("b", "c", 1.0)
        graph.set_trust("c", "d", 1.0)
        assert graph.trust("a", "c") == 1.0
        assert graph.trust("a", "d") == 0.0  # needs three hops

    def test_best_of_multiple_chains(self):
        graph = TrustGraph(decay=1.0)
        graph.set_trust("a", "b", 0.5)
        graph.set_trust("b", "z", 0.5)
        graph.set_trust("a", "c", 0.9)
        graph.set_trust("c", "z", 0.9)
        assert graph.trust("a", "z") == pytest.approx(0.81)

    def test_threshold_decision(self):
        graph = TrustGraph()
        graph.set_trust("a", "b", 0.6)
        assert graph.trusts("a", "b", threshold=0.5)
        assert not graph.trusts("a", "b", threshold=0.7)

    def test_constructor_validation(self):
        with pytest.raises(TrustError):
            TrustGraph(decay=0.0)
        with pytest.raises(TrustError):
            TrustGraph(max_hops=0)
