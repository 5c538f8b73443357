"""Actors: human and nonhuman participants in an actor network.

"Both human and nonhuman actors (including technology) must be given equal
attention as shapers of society... We can still ascribe intentions to
humans, and to technology only the expression of that intention, or
agency" (§II-A, footnote 3).

An actor's *values* are a point in an abstract k-dimensional value space;
two actors are aligned when their value vectors are close. Technology
actors carry higher inertia — they are "a central anchor" that stabilizes
the network — and express the intention of their creator rather than
holding intentions of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ..errors import ActorNetworkError

__all__ = ["ActorKind", "Actor", "value_distance", "row_norms"]

#: Dimensionality of the default value space.
DEFAULT_VALUE_DIMS = 4


class ActorKind(Enum):
    """The stakeholder categories the paper's introduction enumerates."""

    USER = "user"
    COMMERCIAL_ISP = "commercial-isp"
    PRIVATE_NETWORK = "private-network"
    GOVERNMENT = "government"
    RIGHTS_HOLDER = "rights-holder"
    CONTENT_PROVIDER = "content-provider"
    DESIGNER = "designer"
    APPLICATION = "application"      # nonhuman
    TECHNOLOGY = "technology"        # nonhuman
    STANDARD = "standard"            # nonhuman

    @property
    def human(self) -> bool:
        return self not in (ActorKind.APPLICATION, ActorKind.TECHNOLOGY,
                            ActorKind.STANDARD)


@dataclass
class Actor:
    """A participant in the actor network.

    Attributes
    ----------
    values:
        Position in value space; alignment dynamics move it.
    inertia:
        Resistance to value movement in [0, 1); technology actors default
        to high inertia (durability).
    expresses_intention_of:
        For nonhuman actors, the name of the human actor whose intention
        they express (agency without intention).
    """

    name: str
    kind: ActorKind
    values: np.ndarray
    inertia: float = 0.1
    expresses_intention_of: Optional[str] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ActorNetworkError(f"values for {self.name!r} must be a 1-d vector")
        if not 0.0 <= self.inertia < 1.0:
            raise ActorNetworkError(
                f"inertia must be in [0, 1), got {self.inertia} for {self.name!r}"
            )
        if not self.kind.human and self.expresses_intention_of is None:
            # A nonhuman actor with no named creator expresses a diffuse
            # intention; that is permitted but flagged via empty string.
            self.expresses_intention_of = ""

    @property
    def human(self) -> bool:
        return self.kind.human

    def has_intentions(self) -> bool:
        """Only humans hold intentions; technology expresses them."""
        return self.human

    @classmethod
    def make(
        cls,
        name: str,
        kind: ActorKind,
        values: Optional[Sequence[float]] = None,
        rng: Optional[np.random.Generator] = None,
        inertia: Optional[float] = None,
        expresses_intention_of: Optional[str] = None,
        seed: int = 0,
    ) -> "Actor":
        """Create an actor with sensible defaults.

        Random values are drawn uniformly on [-1, 1]^k when not given,
        from ``rng`` when provided, else from a generator built from the
        explicit ``seed``.  Technology/standard actors default to high
        inertia (0.85).
        """
        if values is None:
            generator = rng if rng is not None else np.random.default_rng(seed)
            values = generator.uniform(-1.0, 1.0, size=DEFAULT_VALUE_DIMS)
        if inertia is None:
            inertia = 0.85 if not kind.human else 0.1
        return cls(
            name=name,
            kind=kind,
            values=np.asarray(values, dtype=float),
            inertia=inertia,
            expresses_intention_of=expresses_intention_of,
        )


def value_distance(a: Actor, b: Actor) -> float:
    """Euclidean distance between two actors' value vectors."""
    if a.values.shape != b.values.shape:
        raise ActorNetworkError(
            f"actors {a.name!r} and {b.name!r} live in different value spaces"
        )
    return float(np.linalg.norm(a.values - b.values))


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-d float array, in one call.

    ``np.linalg.norm`` of a float vector is ``sqrt(x.dot(x))``, and a
    stacked ``(1, k) @ (k, 1)`` matmul hands each row to that same dot
    routine, so every entry equals ``np.linalg.norm(row)`` bit for bit.
    A plain sum of squares does not: the BLAS dot fuses multiply and
    add.  ``tests/actornet/test_alignment_oracle.py`` pins the identity
    on the installed numpy.
    """
    return np.sqrt(np.matmul(vectors[:, None, :], vectors[:, :, None])[:, 0, 0])
