"""The array alignment step against a copy of the per-commitment loop.

``AlignmentDynamics.step`` runs as one array pass.  The loop below is
the readable form it replaced, kept here (not in ``src/``) as the
oracle: from identical networks both must leave every actor's values,
every commitment's strength, the ``dissolved`` list and each step's
return value equal bit for bit.

The array step's norms come from ``row_norms``, which relies on a
stacked matmul reaching the same BLAS dot as ``np.linalg.norm``.  That
is a property of the installed numpy, so it is pinned here directly: on
a build where it breaks, this module fails rather than E10's numbers
moving silently.
"""

import numpy as np
import pytest

from tussle.actornet.actors import (
    DEFAULT_VALUE_DIMS,
    Actor,
    ActorKind,
    row_norms,
    value_distance,
)
from tussle.actornet.alignment import AlignmentDynamics
from tussle.actornet.churn import ChurnSimulation, seed_internet_network
from tussle.actornet.collision import merge_networks
from tussle.actornet.network import ActorNetwork
from tussle.experiments.e10_freezing import ARRIVAL_RATES
from tussle.experiments.x05_collision import (
    build_internet_side,
    build_telephone_side,
)


def reference_step(dynamics):
    """One alignment step as a loop over commitments, then over actors."""
    config = dynamics.config
    network = dynamics.network
    actors = network.actors
    deltas = {a.name: np.zeros_like(a.values) for a in actors}
    weights = {a.name: 0.0 for a in actors}
    for commitment in network.commitments:
        actor_a = network.actor(commitment.a)
        actor_b = network.actor(commitment.b)
        gap = actor_b.values - actor_a.values
        deltas[actor_a.name] += commitment.strength * gap
        deltas[actor_b.name] -= commitment.strength * gap
        weights[actor_a.name] += commitment.strength
        weights[actor_b.name] += commitment.strength

    movement = 0.0
    for actor in actors:
        weight = weights[actor.name]
        if weight <= 0:
            continue
        step_vector = (
            config.pull_rate * (1.0 - actor.inertia) * deltas[actor.name] / weight
        )
        actor.values = actor.values + step_vector
        movement += float(np.linalg.norm(step_vector))

    for commitment in list(network.commitments):
        distance = value_distance(
            network.actor(commitment.a), network.actor(commitment.b))
        if distance <= config.tension_distance:
            commitment.strength = min(1.0, commitment.strength + config.strengthen_rate)
        else:
            commitment.strength -= config.weaken_rate
            if commitment.strength < config.dissolve_threshold:
                dynamics.dissolved.append((commitment.a, commitment.b))
                network.remove_commitment(commitment.a, commitment.b)

    dynamics.steps_run += 1
    return movement


class Recorded(AlignmentDynamics):
    """Keeps every step's return value; ``reference`` runs the loop."""

    def __init__(self, network, reference):
        super().__init__(network)
        self.reference = reference
        self.movements = []

    def step(self):
        if self.reference:
            movement = reference_step(self)
        else:
            movement = super().step()
        self.movements.append(movement)
        return movement


def state(dynamics):
    """Everything a step touches, with floats as exact hex strings."""
    network = dynamics.network
    return {
        "values": [(a.name, a.values.tobytes()) for a in network.actors],
        "strengths": [(c.a, c.b, c.strength.hex())
                      for c in network.commitments],
        "dissolved": list(dynamics.dissolved),
        "steps_run": dynamics.steps_run,
        "movements": [m.hex() for m in dynamics.movements],
    }


def assert_lockstep(build, steps):
    """Step two copies of ``build()`` side by side, comparing each step."""
    array = Recorded(build(), reference=False)
    loop = Recorded(build(), reference=True)
    for _ in range(steps):
        array.step()
        loop.step()
        assert state(array) == state(loop)
    return array


def make(name, values, kind=ActorKind.USER, inertia=None):
    return Actor.make(name, kind, values=values, inertia=inertia)


class TestArrayStepMatchesLoop:
    @pytest.mark.parametrize("rate", ARRIVAL_RATES)
    def test_seed_internet_under_churn(self, rate):
        """E10's own runs: entrants join between alignment steps."""
        sims = []
        for reference in (False, True):
            sim = ChurnSimulation(
                seed_internet_network(rng=np.random.default_rng(19)),
                arrival_rate=rate, seed=19)
            sim.alignment = Recorded(sim.network, reference)
            sims.append(sim)
        for _ in range(40):
            for sim in sims:
                sim.step()
            assert state(sims[0].alignment) == state(sims[1].alignment)
        assert sims[0].history == sims[1].history

    def test_collision_merge(self):
        """X05's shape: two networks joined by bridge commitments."""
        def build():
            merged = merge_networks(build_internet_side(0),
                                    build_telephone_side(1))
            for left, right in (("voip-app", "carrier"),
                                ("voip-app", "regulator"),
                                ("netizen0", "subscriber0")):
                merged.commit(left, right, 0.4)
            return merged

        assert_lockstep(build, 60)

    def test_isolated_actors_do_not_move(self):
        def build():
            network = ActorNetwork()
            network.add_actor(make("a", (0.0, 0.1, 0.2, 0.3)))
            network.add_actor(make("b", (0.5, -0.4, 0.3, -0.2)))
            network.add_actor(make("lone", (0.9, 0.9, -0.9, 0.9)))
            network.add_actor(make("tech", (0.1, 0.0, 0.0, 0.0),
                                   kind=ActorKind.TECHNOLOGY))
            network.commit("a", "b", 0.6)
            network.commit("a", "tech", 0.3)
            return network

        dynamics = assert_lockstep(build, 25)
        assert dynamics.network.actor("lone").values.tolist() == [
            0.9, 0.9, -0.9, 0.9]

    def test_commitments_dissolve_mid_run(self):
        def build():
            network = ActorNetwork()
            rng = np.random.default_rng(3)
            for i in range(8):
                network.add_actor(make(
                    f"u{i}", rng.uniform(-1.0, 1.0, DEFAULT_VALUE_DIMS)))
            for i in range(8):
                for j in range(i + 1, 8, 3):
                    network.commit(f"u{i}", f"u{j}", 0.1 + 0.1 * (j % 3))
            return network

        dynamics = assert_lockstep(build, 30)
        # Two weak, tense ties dissolve in the second step; ten survive.
        assert len(dynamics.dissolved) == 2
        assert len(dynamics.network.commitments) == 10

    def test_empty_network(self):
        dynamics = assert_lockstep(ActorNetwork, 3)
        assert dynamics.movements == [0.0, 0.0, 0.0]
        assert dynamics.steps_run == 3

    def test_mean_pairwise_distance_matches_loop(self):
        network = merge_networks(build_internet_side(0),
                                 build_telephone_side(1))
        network.commit("voip-app", "carrier", 0.4)
        total = 0.0
        for commitment in network._commitments.values():
            total += value_distance(network.actor(commitment.a),
                                    network.actor(commitment.b))
        expected = total / len(network._commitments)
        assert network.mean_pairwise_distance().hex() == expected.hex()


def hexes(values):
    return [float(value).hex() for value in values]


class TestRowNorms:
    @pytest.mark.parametrize("dims", [2, DEFAULT_VALUE_DIMS])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_random_rows_match_linalg_norm(self, scale, dims):
        rows = np.random.default_rng(0).uniform(-1.0, 1.0, (20000, dims))
        rows *= scale
        expected = [np.linalg.norm(row) for row in rows]
        assert hexes(row_norms(rows)) == hexes(expected)

    def test_edge_rows_match_linalg_norm(self):
        tiny = 5e-324  # the smallest positive subnormal double
        rows = np.array([
            [0.0, 0.0, 0.0, 0.0],
            [-0.0, 0.0, -0.0, 0.0],
            [tiny, -tiny, 3 * tiny, 0.0],
            [1e-310, 2e-309, -5e-320, 1e-308],
            [1e200, -1e200, 1e200, 1e200],
            [1.7e308, 1.7e308, 0.0, 0.0],
            [np.inf, 1.0, 0.0, 0.0],
            [np.nan, 1.0, 2.0, 3.0],
        ])
        with np.errstate(over="ignore"):
            expected = [np.linalg.norm(row) for row in rows]
            assert hexes(row_norms(rows)) == hexes(expected)

    def test_no_rows(self):
        assert row_norms(np.zeros((0, 4))).shape == (0,)
