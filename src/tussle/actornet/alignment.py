"""Alignment dynamics: actors harmonizing to common interfaces.

"It is the whole actor network... that becomes stable, as all the human
and nonhuman actors align and harmonize themselves to common
(socio-technical) interfaces" (§II-A).

Each step, committed actors pull one another's values together with force
proportional to commitment strength, damped by each actor's inertia
(technology moves least — it is the anchor). Commitments between actors
that stay aligned strengthen; commitments under sustained value tension
weaken and may dissolve, which is how "tussles... have not been driven
out" keeps a network changeable.

A step runs as one array pass over the stacked actor values, with the
float operations of a per-commitment loop in the same order, so its
results equal that loop's bit for bit (the reference copy lives in
``tests/actornet/test_alignment_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .actors import row_norms
from .network import ActorNetwork

__all__ = ["AlignmentConfig", "AlignmentDynamics"]


@dataclass
class AlignmentConfig:
    """Tuning knobs for the alignment process.

    Attributes
    ----------
    pull_rate:
        Base fraction of the value gap closed per step at strength 1.
    strengthen_rate / weaken_rate:
        Commitment strength change per step when the pair is within /
        beyond ``tension_distance``.
    dissolve_threshold:
        Commitments below this strength dissolve.
    tension_distance:
        Value distance above which a commitment is "in tension".
    """

    pull_rate: float = 0.2
    strengthen_rate: float = 0.02
    weaken_rate: float = 0.05
    dissolve_threshold: float = 0.05
    tension_distance: float = 0.8


class AlignmentDynamics:
    """Runs alignment steps over an :class:`ActorNetwork`."""

    def __init__(self, network: ActorNetwork,
                 config: Optional[AlignmentConfig] = None):
        self.network = network
        self.config = config or AlignmentConfig()
        self.steps_run = 0
        self.dissolved: List[Tuple[str, str]] = []

    def step(self) -> float:
        """One synchronous alignment step.

        Returns the total value movement this step (a convergence gauge).
        """
        config = self.config
        actors = self.network.actors
        commitments = self.network.commitments
        self.steps_run += 1
        if not actors:
            return 0.0
        row = {actor.name: i for i, actor in enumerate(actors)}
        values = np.stack([actor.values for actor in actors])
        # Rows a0, b0, a1, b1, ...: ``np.add.at`` applies them in this
        # order, so each actor accumulates its pulls in commitment order.
        ends = np.array([(row[c.a], row[c.b]) for c in commitments],
                        dtype=np.intp).reshape(-1)
        a, b = ends[0::2], ends[1::2]
        strength = np.array([c.strength for c in commitments], dtype=float)
        pull = strength[:, None] * (values[b] - values[a])
        deltas = np.zeros_like(values)
        np.add.at(deltas, ends, np.stack([pull, -pull], axis=1).reshape(
            ends.size, values.shape[1]))
        weights = np.zeros(len(actors))
        np.add.at(weights, ends, np.repeat(strength, 2))

        moving = np.flatnonzero(~(weights <= 0))
        rate = np.array([config.pull_rate * (1.0 - actors[i].inertia)
                         for i in moving.tolist()], dtype=float)
        steps = rate[:, None] * deltas[moving] / weights[moving, None]
        moved = values[moving] + steps
        values[moving] = moved
        for i, vector in zip(moving.tolist(), moved):
            actors[i].values = vector
        movement = 0.0
        for norm in row_norms(steps).tolist():
            movement += norm

        # Strength adaptation and dissolution.
        distances = row_norms(values[a] - values[b])
        for commitment, distance in zip(commitments, distances.tolist()):
            if distance <= config.tension_distance:
                commitment.strength = min(1.0, commitment.strength + config.strengthen_rate)
            else:
                commitment.strength -= config.weaken_rate
                if commitment.strength < config.dissolve_threshold:
                    self.dissolved.append((commitment.a, commitment.b))
                    self.network.remove_commitment(commitment.a, commitment.b)
        return movement

    def run(self, steps: int, settle_tolerance: Optional[float] = None) -> int:
        """Run up to ``steps`` alignment steps.

        Stops early when total movement drops below ``settle_tolerance``.
        Returns the number of steps actually run.
        """
        for index in range(1, steps + 1):
            movement = self.step()
            if settle_tolerance is not None and movement < settle_tolerance:
                return index
        return steps
