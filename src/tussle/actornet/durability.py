"""Durability, rigidity and freezing of actor networks.

"Technology is Society made Durable" (Latour, §II-A) — and "the network
gets harder to change as it grows up." This module turns those claims into
metrics:

* :func:`durability` — how locked-in the network is: strong commitments
  and harmonized values mean high durability;
* :func:`cost_to_change` — effort to replace a technology actor: every
  committed neighbour must re-align (sum of incident commitment strengths,
  weighted by how far the replacement's values sit from the neighbours');
* :func:`is_frozen` — the paper's §II-C prediction operationalized: a
  network freezes when values have harmonized (low variance) AND no new
  actors are arriving.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..canon import ordered_sum
from ..errors import ActorNetworkError
from .actors import Actor
from .network import ActorNetwork

__all__ = ["durability", "changeability", "cost_to_change", "is_frozen"]


def durability(network: ActorNetwork) -> float:
    """Durability in [0, 1]: commitment strength x value harmony.

    0 for an empty or fully-unaligned network; approaches 1 when every
    actor is strongly committed and values have converged.
    """
    commitments = network.commitments
    if not commitments:
        return 0.0
    mean_strength = (ordered_sum(c.strength for c in commitments)
                     / len(commitments))
    # Harmony: 1 when committed pairs coincide in value space.
    mean_distance = network.mean_pairwise_distance()
    harmony = 1.0 / (1.0 + mean_distance)
    # Coverage: fraction of actors with at least one commitment.
    actors = network.actors
    if not actors:
        return 0.0
    covered = sum(1 for a in actors if network.degree(a.name) > 0) / len(actors)
    return mean_strength * harmony * covered


def changeability(network: ActorNetwork) -> float:
    """1 - durability: how open the network still is to change."""
    return 1.0 - durability(network)


def cost_to_change(network: ActorNetwork, technology_name: str,
                   replacement: Optional[Actor] = None) -> float:
    """Cost of replacing a technology actor.

    Every neighbour committed to the technology must re-align. The cost is
    the sum over neighbours of (commitment strength x re-alignment
    distance), where the distance is to the replacement's values (or, when
    no replacement is given, a unit re-alignment per unit strength).
    """
    technology = network.actor(technology_name)
    if technology.human:
        raise ActorNetworkError(
            f"{technology_name!r} is a human actor; cost_to_change applies to technology"
        )
    total = 0.0
    for neighbor_name in network.neighbors(technology_name):
        strength = network.commitment(technology_name, neighbor_name).strength
        if replacement is not None:
            neighbor = network.actor(neighbor_name)
            distance = float(np.linalg.norm(neighbor.values - replacement.values))
        else:
            distance = 1.0
        total += strength * distance
    return total


def is_frozen(
    network: ActorNetwork,
    recent_arrivals: int,
    variance_threshold: float = 0.05,
    strength_threshold: float = 0.7,
) -> bool:
    """Has the actor network frozen (§II-C)?

    "When new applications and user groups cease to come to the Internet,
    and the set of actors... becomes fixed, then we can assume that the
    tensions and tussles in the network will begin to be resolved, and
    this will imply a freezing of the actor network."

    Frozen = no recent arrivals AND values harmonized AND commitments
    strong.
    """
    if recent_arrivals > 0:
        return False
    commitments = network.commitments
    if not commitments:
        return False
    mean_strength = sum(c.strength for c in commitments) / len(commitments)
    return (network.value_variance() <= variance_threshold
            and mean_strength >= strength_threshold)
