"""Routing substrate: path-vector, source routing, overlays.

The routing package reifies the control-point tussle of §V-A-4: the same
AS-level topology can be routed under provider control (path-vector with
Gao–Rexford policy), user control (payment-aware source routing), or the
user's workaround (overlays).
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".base": ("ControlPoint", "Route", "RoutingProtocol"),
    ".policies": ("GaoRexfordPolicy", "NeighborClass", "RoutingPolicy",
                  "classify_neighbor", "is_valley_free"),
    ".pathvector": ("PathVectorRouting",),
    ".sourcerouting": ("RouteAttempt", "SourceRoutingSystem", "TransitTerms",
                       "valley_free_paths"),
    ".overlay": ("OverlayNetwork", "OverlayPath"),
    ".recovery": ("RouteRecovery",),
})
