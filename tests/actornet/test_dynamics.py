"""Tests for alignment dynamics, durability and freezing."""

import numpy as np
import pytest

from tussle.errors import ActorNetworkError
from tussle.actornet.actors import Actor, ActorKind
from tussle.actornet.alignment import AlignmentConfig, AlignmentDynamics
from tussle.actornet.churn import ChurnSimulation, seed_internet_network
from tussle.actornet.durability import changeability, durability, is_frozen
from tussle.actornet.network import ActorNetwork


def pair_network(distance=1.0, strength=0.5):
    net = ActorNetwork()
    net.add_actor(Actor.make("a", ActorKind.USER, values=(0.0, 0.0)))
    net.add_actor(Actor.make("b", ActorKind.USER, values=(distance, 0.0)))
    net.commit("a", "b", strength)
    return net


class TestAlignment:
    def test_committed_actors_converge(self):
        net = pair_network(distance=1.0)
        dynamics = AlignmentDynamics(net)
        dynamics.run(100)
        assert net.mean_pairwise_distance() < 0.05

    def test_technology_anchors_pull_less(self):
        net = ActorNetwork()
        net.add_actor(Actor.make("tech", ActorKind.TECHNOLOGY,
                                 values=(0.0, 0.0)))
        net.add_actor(Actor.make("user", ActorKind.USER, values=(1.0, 0.0)))
        net.commit("tech", "user", 0.8)
        dynamics = AlignmentDynamics(net)
        dynamics.run(50)
        # The user moved to the technology, not the other way.
        assert abs(net.actor("tech").values[0]) < 0.2
        assert net.actor("user").values[0] < 0.3

    def test_aligned_commitments_strengthen(self):
        net = pair_network(distance=0.1, strength=0.5)
        AlignmentDynamics(net).run(20)
        assert net.commitment("a", "b").strength > 0.5

    def test_tense_commitments_dissolve(self):
        config = AlignmentConfig(pull_rate=0.0, weaken_rate=0.2,
                                 tension_distance=0.5)
        net = pair_network(distance=5.0, strength=0.4)
        dynamics = AlignmentDynamics(net, config=config)
        dynamics.run(20)
        assert not net.has_commitment("a", "b")
        assert ("a", "b") in dynamics.dissolved

    def test_run_settles_early(self):
        net = pair_network(distance=0.0)
        steps = AlignmentDynamics(net).run(100, settle_tolerance=1e-9)
        assert steps < 100

    def test_isolated_actor_does_not_move(self):
        net = ActorNetwork()
        net.add_actor(Actor.make("lone", ActorKind.USER, values=(1.0, 2.0)))
        AlignmentDynamics(net).run(10)
        assert np.allclose(net.actor("lone").values, (1.0, 2.0))


class TestDurability:
    def test_empty_network_not_durable(self):
        assert durability(ActorNetwork()) == 0.0

    def test_aligned_strong_network_is_durable(self):
        net = pair_network(distance=0.0, strength=1.0)
        assert durability(net) > 0.9

    def test_unaligned_network_less_durable(self):
        near = pair_network(distance=0.1, strength=0.8)
        far = pair_network(distance=5.0, strength=0.8)
        assert durability(near) > durability(far)

    def test_changeability_complements(self):
        net = pair_network()
        assert changeability(net) == pytest.approx(1.0 - durability(net))

    def test_frozen_requires_no_arrivals(self):
        net = pair_network(distance=0.0, strength=0.9)
        assert is_frozen(net, recent_arrivals=0)
        assert not is_frozen(net, recent_arrivals=1)

    def test_frozen_requires_harmony(self):
        net = pair_network(distance=5.0, strength=0.9)
        assert not is_frozen(net, recent_arrivals=0)


class TestChurn:
    def test_seed_network_structure(self):
        net = seed_internet_network()
        names = {a.name for a in net.actors}
        assert "internet-protocols" in names
        assert any(n.startswith("isp") for n in names)

    def test_entrants_grow_the_network(self):
        simulation = ChurnSimulation(seed_internet_network(), arrival_rate=2.0,
                                     seed=1)
        before = len(simulation.network.actors)
        simulation.run(10)
        assert len(simulation.network.actors) >= before + 15

    def test_zero_rate_freezes_eventually(self):
        simulation = ChurnSimulation(seed_internet_network(), arrival_rate=0.0,
                                     seed=1)
        simulation.run(30)
        assert simulation.froze_at() is not None

    def test_high_rate_stays_changeable(self):
        simulation = ChurnSimulation(seed_internet_network(), arrival_rate=2.0,
                                     seed=1)
        simulation.run(30)
        assert simulation.froze_at() is None
        assert simulation.final_changeability() > 0.1

    def test_negative_rate_rejected(self):
        with pytest.raises(ActorNetworkError):
            ChurnSimulation(seed_internet_network(), arrival_rate=-1.0)

    def test_deterministic_under_seed(self):
        def run(seed):
            simulation = ChurnSimulation(seed_internet_network(),
                                         arrival_rate=1.0, seed=seed)
            simulation.run(10)
            return [(r.arrivals, r.n_actors) for r in simulation.history]

        assert run(4) == run(4)
