"""Incremental valley-free reconvergence equals a fresh convergence.

``converge_valley_free(net, dests, previous=rib)`` recomputes only the
destination columns a peer-edge change can reach.  Every test here
holds it to a fresh convergence of the same graph, array for array and
``levels`` for ``levels``, and checks which convergences it may reuse:
none after a customer/provider, AS-set or destination-list change, all
of them on an unchanged graph.
"""

import random

import numpy as np
import pytest

import tussle.routing.pathvector as pathvector
from tussle.experiments import run_p01, run_p02
from tussle.netsim.topology import Relationship
from tussle.obs import Metrics, observe
from tussle.routing import PathVectorRouting
from tussle.scale.vrouting import CLASS_CUSTOMER, converge_valley_free
from tussle.topogen import TopogenConfig, generate_internet


def internet(n_ases, seed=0):
    return generate_internet(TopogenConfig(n_ases=n_ases,
                                           router_detail="none"), seed=seed)


def stubs(network):
    return [a.asn for a in network.ases if a.tier == 3]


def assert_same_rib(rib, fresh):
    for name in ("cls", "plen", "nhop"):
        np.testing.assert_array_equal(getattr(rib, name), getattr(fresh, name),
                                      err_msg=name)
    assert rib.dest_asns == fresh.dest_asns
    assert rib.levels == fresh.levels


def customer_columns(rib, *asns):
    rows = [rib.index.of(a) for a in asns]
    return np.flatnonzero((rib.cls[rows] == CLASS_CUSTOMER).any(axis=0))


def mutable_peer_pairs(network):
    tier1 = {a.asn for a in network.ases if a.tier == 1}
    return sorted((a.asn, p) for a in network.ases
                  for p in network.peers_of(a.asn)
                  if a.asn < p and not (a.asn in tier1 and p in tier1))


@pytest.fixture()
def checked_steps(monkeypatch):
    """Hold every routing convergence to a fresh one; record each reuse."""
    calls = []
    real = pathvector.converge_valley_free

    def checked(network, destinations=None, previous=None):
        rib = real(network, destinations, previous=previous)
        assert_same_rib(rib, real(network, destinations))
        calls.append(0 if rib is previous else rib.recomputed)
        return rib

    monkeypatch.setattr(pathvector, "converge_valley_free", checked)
    return calls


class TestLoopSteps:
    def test_every_p01_step_equals_a_fresh_convergence(self, checked_steps):
        run_p01(seed=3)
        assert len(checked_steps) >= 3
        full = checked_steps[0]
        assert any(count < full for count in checked_steps[1:])

    @pytest.mark.slow
    def test_every_p02_step_equals_a_fresh_convergence(self, checked_steps):
        run_p02(seed=0)
        # 2,783 of 5,040 columns: a depeering reaches only the two
        # combatants' customer cones, and the peace's first step reuses
        # the war's RIB outright.
        assert checked_steps == [840, 840, 733, 185, 0, 185]


class TestPeerChurn:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_adds_and_removes_on_topogen_120(self, seed):
        net = internet(120, seed)
        dests = stubs(net)
        asns = [a.asn for a in net.ases]
        rng = random.Random(seed)
        rib = converge_valley_free(net, dests)
        recomputed = []
        for _ in range(12):
            for _ in range(rng.randint(1, 3)):
                existing = mutable_peer_pairs(net)
                if existing and rng.random() < 0.5:
                    net.remove_as_relationship(*rng.choice(existing))
                else:
                    a, b = rng.sample(asns, 2)
                    if net.relationship(a, b) is None:
                        net.add_as_relationship(a, b, Relationship.PEER_PEER)
            step = converge_valley_free(net, dests, previous=rib)
            assert_same_rib(step, converge_valley_free(net, dests))
            recomputed.append(0 if step is rib else step.recomputed)
            rib = step
        assert min(recomputed) < len(dests)

    def test_unchanged_graph_returns_previous_itself(self):
        net = internet(120)
        rib = converge_valley_free(net, stubs(net))
        assert converge_valley_free(net, stubs(net), previous=rib) is rib

    def test_single_depeer_recomputes_the_endpoints_customer_columns(self):
        net = internet(120)
        dests = stubs(net)
        rib = converge_valley_free(net, dests)
        a, b = mutable_peer_pairs(net)[0]
        expected = customer_columns(rib, a, b)
        assert 0 < expected.size < len(dests)
        net.remove_as_relationship(a, b)
        step = converge_valley_free(net, dests, previous=rib)
        assert step.recomputed == expected.size
        assert_same_rib(step, converge_valley_free(net, dests))
        # Columns outside both customer cones are carried over untouched.
        kept = np.setdiff1d(np.arange(len(dests)), expected)
        np.testing.assert_array_equal(step.nhop[:, kept], rib.nhop[:, kept])


class TestFullRecompute:
    """Only a peer-edge change may reuse the previous RIB."""

    def _reconverge(self, net, dests, rib):
        step = converge_valley_free(net, dests, previous=rib)
        assert step is not rib
        assert step.recomputed == len(dests)
        assert_same_rib(step, converge_valley_free(net, dests))

    def test_customer_provider_change(self):
        net = internet(120)
        dests = stubs(net)
        rib = converge_valley_free(net, dests)
        stub = dests[0]
        provider = next(a.asn for a in net.ases if a.tier == 2
                        and net.relationship(stub, a.asn) is None)
        net.add_as_relationship(stub, provider, Relationship.CUSTOMER_PROVIDER)
        self._reconverge(net, dests, rib)

    def test_as_set_change(self):
        net = internet(120)
        dests = stubs(net)
        rib = converge_valley_free(net, dests)
        net.add_as(max(a.asn for a in net.ases) + 1, tier=3)
        self._reconverge(net, dests, rib)

    def test_destination_list_change(self):
        net = internet(120)
        dests = stubs(net)
        rib = converge_valley_free(net, dests)
        self._reconverge(net, dests[:-1], rib)


class TestColumnCounters:
    def test_converge_fast_counts_columns_and_recomputed_columns(self):
        net = internet(120)
        dests = tuple(stubs(net))
        metrics = Metrics()

        def counters():
            return dict(metrics.snapshot()["routing.pathvector"]["counters"])

        with observe(metrics=metrics):
            first = PathVectorRouting(net)
            first.converge_fast(destinations=dests)
            assert counters() == {"columns": len(dests),
                                  "columns_recomputed": len(dests)}
            again = PathVectorRouting(net)
            again.converge_fast(destinations=dests, previous=first.fast_rib)
            assert again.fast_rib is first.fast_rib
            assert counters() == {"columns": 2 * len(dests),
                                  "columns_recomputed": len(dests)}
            a, b = mutable_peer_pairs(net)[0]
            cone = customer_columns(first.fast_rib, a, b).size
            net.remove_as_relationship(a, b)
            PathVectorRouting(net).converge_fast(destinations=dests,
                                                 previous=first.fast_rib)
        assert counters() == {"columns": 3 * len(dests),
                              "columns_recomputed": len(dests) + cone}

