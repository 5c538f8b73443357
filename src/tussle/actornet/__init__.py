"""Actor-network theory substrate (§II-A, §II-C).

Actors (human and nonhuman) with value vectors, commitments that align
them, durability/changeability/freezing metrics, entrant churn, and the
collision of two networks.
"""

from .actors import DEFAULT_VALUE_DIMS, Actor, ActorKind, value_distance
from .network import ActorNetwork, Commitment
from .alignment import AlignmentConfig, AlignmentDynamics
from .durability import changeability, cost_to_change, durability, is_frozen
from .churn import ChurnRecord, ChurnSimulation, seed_internet_network
from .collision import CollisionResult, collide, merge_networks

__all__ = [
    "DEFAULT_VALUE_DIMS", "Actor", "ActorKind", "value_distance",
    "ActorNetwork", "Commitment",
    "AlignmentConfig", "AlignmentDynamics",
    "changeability", "cost_to_change", "durability", "is_frozen",
    "ChurnRecord", "ChurnSimulation", "seed_internet_network",
    "CollisionResult", "collide", "merge_networks",
]
