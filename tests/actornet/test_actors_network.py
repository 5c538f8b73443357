"""Tests for actors and the actor network graph."""

import numpy as np
import pytest

from tussle.errors import ActorNetworkError
from tussle.actornet.actors import Actor, ActorKind
from tussle.actornet.network import ActorNetwork


def make_actor(name, kind=ActorKind.USER, values=(0.0, 0.0)):
    return Actor.make(name, kind, values=values)


class TestActors:
    def test_human_vs_nonhuman(self):
        assert ActorKind.USER.human
        assert ActorKind.GOVERNMENT.human
        assert not ActorKind.TECHNOLOGY.human
        assert not ActorKind.STANDARD.human

    def test_only_humans_hold_intentions(self):
        user = make_actor("u")
        tech = Actor.make("t", ActorKind.TECHNOLOGY, values=(0.0, 0.0),
                          expresses_intention_of="u")
        assert user.has_intentions()
        assert not tech.has_intentions()
        assert tech.expresses_intention_of == "u"

    def test_technology_defaults_to_high_inertia(self):
        tech = Actor.make("t", ActorKind.TECHNOLOGY, values=(0.0,))
        human = Actor.make("h", ActorKind.USER, values=(0.0,))
        assert tech.inertia > human.inertia

    def test_inertia_bounds(self):
        with pytest.raises(ActorNetworkError):
            Actor(name="x", kind=ActorKind.USER, values=np.zeros(2), inertia=1.0)

    def test_values_must_be_vector(self):
        with pytest.raises(ActorNetworkError):
            Actor(name="x", kind=ActorKind.USER, values=np.zeros((2, 2)))

    def test_random_values_seeded(self):
        rng = np.random.default_rng(5)
        a = Actor.make("a", ActorKind.USER, rng=rng)
        rng2 = np.random.default_rng(5)
        b = Actor.make("b", ActorKind.USER, rng=rng2)
        assert np.allclose(a.values, b.values)


class TestNetwork:
    def test_add_and_commit(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a"))
        net.add_actor(make_actor("b"))
        commitment = net.commit("a", "b", 0.5)
        assert commitment.strength == 0.5
        assert net.has_commitment("b", "a")

    def test_duplicate_actor_rejected(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a"))
        with pytest.raises(ActorNetworkError):
            net.add_actor(make_actor("a"))

    def test_actor_from_another_value_space_rejected(self):
        """Once added, a 3-d actor among 2-d ones broke alignment steps,
        ``value_variance`` and ``durability`` with mismatched errors."""
        net = ActorNetwork()
        net.add_actor(make_actor("a", values=(0.0, 0.0)))
        with pytest.raises(ActorNetworkError, match="value dimensions"):
            net.add_actor(make_actor("b", values=(0.0, 0.0, 0.0)))
        assert not net.has_actor("b")
        assert [a.name for a in net.actors] == ["a"]

    def test_self_commitment_rejected(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a"))
        with pytest.raises(ActorNetworkError):
            net.commit("a", "a")

    def test_strength_bounds(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a"))
        net.add_actor(make_actor("b"))
        with pytest.raises(ActorNetworkError):
            net.commit("a", "b", 0.0)
        with pytest.raises(ActorNetworkError):
            net.commit("a", "b", 1.5)

    def test_recommit_strengthens_never_weakens(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a"))
        net.add_actor(make_actor("b"))
        net.commit("a", "b", 0.7)
        net.commit("a", "b", 0.3)
        assert net.commitment("a", "b").strength == 0.7
        net.commit("a", "b", 0.9)
        assert net.commitment("a", "b").strength == 0.9

    def test_kind_queries(self):
        net = ActorNetwork()
        net.add_actor(make_actor("u", ActorKind.USER))
        net.add_actor(Actor.make("t", ActorKind.TECHNOLOGY, values=(0.0, 0.0)))
        assert [a.name for a in net.human_actors()] == ["u"]
        assert [a.name for a in net.technology_actors()] == ["t"]

    def test_value_variance_zero_when_harmonized(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a", values=(1.0, 1.0)))
        net.add_actor(make_actor("b", values=(1.0, 1.0)))
        assert net.value_variance() == 0.0

    def test_mean_pairwise_distance_over_commitments(self):
        net = ActorNetwork()
        net.add_actor(make_actor("a", values=(0.0, 0.0)))
        net.add_actor(make_actor("b", values=(3.0, 4.0)))
        net.commit("a", "b")
        assert net.mean_pairwise_distance() == pytest.approx(5.0)
