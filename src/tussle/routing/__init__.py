"""Routing substrate: path-vector, source routing, overlays.

The routing package reifies the control-point tussle of §V-A-4: the same
AS-level topology can be routed under provider control (path-vector with
Gao–Rexford policy), user control (payment-aware source routing), or the
user's workaround (overlays).
"""

from .base import ControlPoint, Route, RoutingProtocol
from .policies import (
    GaoRexfordPolicy,
    NeighborClass,
    RoutingPolicy,
    classify_neighbor,
    is_valley_free,
)
from .pathvector import PathVectorRouting
from .sourcerouting import (
    RouteAttempt,
    SourceRoutingSystem,
    TransitTerms,
    valley_free_paths,
)
from .overlay import OverlayNetwork, OverlayPath
from .recovery import RouteRecovery

__all__ = [
    "ControlPoint", "Route", "RoutingProtocol",
    "GaoRexfordPolicy", "NeighborClass", "RoutingPolicy",
    "classify_neighbor", "is_valley_free",
    "PathVectorRouting",
    "RouteAttempt", "SourceRoutingSystem", "TransitTerms", "valley_free_paths",
    "OverlayNetwork", "OverlayPath",
    "RouteRecovery",
]
