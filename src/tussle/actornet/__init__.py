"""Actor-network theory substrate (§II-A, §II-C).

Actors (human and nonhuman) with value vectors, commitments that align
them, durability/changeability/freezing metrics, entrant churn, and the
collision of two networks.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".actors": ("DEFAULT_VALUE_DIMS", "Actor", "ActorKind"),
    ".network": ("ActorNetwork", "Commitment"),
    ".alignment": ("AlignmentConfig", "AlignmentDynamics"),
    ".durability": ("changeability", "is_frozen"),
    ".churn": ("ChurnRecord", "ChurnSimulation", "seed_internet_network"),
    ".collision": ("CollisionResult", "collide", "merge_networks"),
})
