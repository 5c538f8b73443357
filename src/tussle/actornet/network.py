"""The actor network: actors joined by commitments.

"We see this whole network becoming more durable to the extent that the
actors commit to each other, with the technology as a central anchor in
this network" (§II-A). Commitments are weighted undirected edges; their
strength grows as committed actors stay aligned and decays when they
drift apart (handled by the alignment dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from ..errors import ActorNetworkError
from .actors import Actor, ActorKind, row_norms

__all__ = ["Commitment", "ActorNetwork"]


@dataclass
class Commitment:
    """A weighted tie between two actors."""

    a: str
    b: str
    strength: float = 0.5

    def key(self) -> Tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class ActorNetwork:
    """A mutable graph of actors and commitments."""

    def __init__(self) -> None:
        self._actors: Dict[str, Actor] = {}
        self._commitments: Dict[Tuple[str, str], Commitment] = {}
        self._adjacency: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Actors
    # ------------------------------------------------------------------
    def add_actor(self, actor: Actor) -> Actor:
        """Add an actor; every actor of a network shares one value space."""
        if actor.name in self._actors:
            raise ActorNetworkError(f"duplicate actor {actor.name!r}")
        member = next(iter(self._actors.values()), None)
        if member is not None and actor.values.shape != member.values.shape:
            raise ActorNetworkError(
                f"actor {actor.name!r} has {actor.values.size} value "
                f"dimensions; this network's actors have {member.values.size}")
        self._actors[actor.name] = actor
        self._adjacency[actor.name] = set()
        return actor

    def actor(self, name: str) -> Actor:
        try:
            return self._actors[name]
        except KeyError:
            raise ActorNetworkError(f"unknown actor {name!r}") from None

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    @property
    def actors(self) -> List[Actor]:
        return [self._actors[k] for k in sorted(self._actors)]

    def actors_of_kind(self, kind: ActorKind) -> List[Actor]:
        return [a for a in self.actors if a.kind is kind]

    def human_actors(self) -> List[Actor]:
        return [a for a in self.actors if a.human]

    def technology_actors(self) -> List[Actor]:
        return [a for a in self.actors if not a.human]

    # ------------------------------------------------------------------
    # Commitments
    # ------------------------------------------------------------------
    def commit(self, a: str, b: str, strength: float = 0.5) -> Commitment:
        """Create or strengthen a commitment between two actors."""
        self.actor(a)
        self.actor(b)
        if a == b:
            raise ActorNetworkError(f"actor {a!r} cannot commit to itself")
        if not 0.0 < strength <= 1.0:
            raise ActorNetworkError(f"strength must be in (0, 1], got {strength}")
        key = (a, b) if a <= b else (b, a)
        existing = self._commitments.get(key)
        if existing is not None:
            existing.strength = min(1.0, max(existing.strength, strength))
            return existing
        commitment = Commitment(a=key[0], b=key[1], strength=strength)
        self._commitments[key] = commitment
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        return commitment

    def commitment(self, a: str, b: str) -> Commitment:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._commitments[key]
        except KeyError:
            raise ActorNetworkError(f"no commitment {a!r}-{b!r}") from None

    def has_commitment(self, a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self._commitments

    def remove_commitment(self, a: str, b: str) -> None:
        commitment = self.commitment(a, b)
        del self._commitments[commitment.key()]
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)

    @property
    def commitments(self) -> List[Commitment]:
        return [self._commitments[k] for k in sorted(self._commitments)]

    def neighbors(self, name: str) -> List[str]:
        self.actor(name)
        return sorted(self._adjacency[name])

    def degree(self, name: str) -> int:
        return len(self._adjacency[self.actor(name).name])

    # ------------------------------------------------------------------
    # Aggregate structure
    # ------------------------------------------------------------------
    def mean_pairwise_distance(self) -> float:
        """Mean value distance across committed pairs (alignment gauge)."""
        if not self._commitments:
            return 0.0
        row = {name: i for i, name in enumerate(self._actors)}
        values = np.stack([a.values for a in self._actors.values()])
        pairs = self._commitments.values()
        distances = row_norms(values[[row[c.a] for c in pairs]]
                              - values[[row[c.b] for c in pairs]])
        total = 0.0
        for distance in distances.tolist():
            total += distance
        return total / len(self._commitments)

    def value_variance(self) -> float:
        """Total variance of actor values (0 when fully harmonized)."""
        if len(self._actors) < 2:
            return 0.0
        matrix = np.stack([a.values for a in self.actors])
        return float(matrix.var(axis=0).sum())
