"""Path-vector (BGP-like) inter-domain routing with pluggable policy.

The protocol the providers "had the economic incentive to drive the
engineering and standardization of" (§V-A-4). Each AS selects one best
route per destination under its :class:`~tussle.routing.policies.RoutingPolicy`
and exports routes subject to the policy's export rule. Convergence is by
synchronous Bellman-Ford-style iteration to a fixed point, which is
guaranteed for Gao–Rexford-compliant policies.

Visibility: an AS sees only the routes its neighbours chose to announce to
it — the property the paper contrasts with link-state routing.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import RoutingError
from ..netsim.topology import Network
from ..obs.runtime import current as _obs_current
from ..scale.vrouting import converge_valley_free
from .base import ControlPoint, Route, RoutingProtocol
from .policies import GaoRexfordPolicy, RoutingPolicy

__all__ = ["PathVectorRouting"]


class PathVectorRouting(RoutingProtocol):
    """BGP-like routing at AS granularity.

    Parameters
    ----------
    network:
        Topology carrying the AS-level business graph.
    policy:
        Route preference / export policy, defaulting to Gao–Rexford.
    max_iterations:
        Safety bound on convergence loops.
    """

    control_point = ControlPoint.PROVIDER

    def __init__(
        self,
        network: Network,
        policy: Optional[RoutingPolicy] = None,
        max_iterations: int = 1000,
    ):
        self.network = network
        self.policy = policy or GaoRexfordPolicy()
        self.max_iterations = max_iterations
        # asn -> destination -> selected Route
        self._rib: Dict[int, Dict[int, Route]] = {}
        # what each AS has announced to each neighbour (for visibility study)
        self.announcements: Dict[Tuple[int, int], Dict[int, Route]] = {}
        # array-backed RIB when converge_fast() was used instead
        self._fast = None
        self._converged = False
        self.iterations_used = 0

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------
    def converge(self) -> int:
        """Iterate announce/select to a fixed point.

        Returns the number of iterations needed. Raises
        :class:`RoutingError` if the bound is exceeded (policy dispute
        wheel — cannot happen under Gao–Rexford).
        """
        asns = [a.asn for a in self.network.ases]
        self._rib = {asn: {asn: Route(destination=asn, path=(asn,))} for asn in asns}
        self.announcements = {}
        self._fast = None
        ctx = _obs_current()
        trace = ctx.tracer if ctx.tracer.enabled else None
        metrics = (ctx.metrics.scope("routing.pathvector")
                   if ctx.metrics.enabled else None)
        span = (trace.begin("routing.pathvector", "converge", 0.0,
                            ases=len(asns))
                if trace is not None else None)
        total_announced = 0

        for iteration in range(1, self.max_iterations + 1):
            changed = False
            # Build this round's announcements from the current RIBs.
            round_announcements: Dict[Tuple[int, int], Dict[int, Route]] = {}
            for asn in asns:
                for neighbor in sorted(self.network.as_neighbors(asn)):
                    exported: Dict[int, Route] = {}
                    for dest, route in self._rib[asn].items():
                        if neighbor in route.path:
                            continue  # loop prevention
                        if self.policy.may_export(self.network, asn, route, neighbor):
                            exported[dest] = route
                    round_announcements[(asn, neighbor)] = exported
            # Each AS selects its best route per destination from its own
            # prefix plus all received announcements.
            for asn in asns:
                new_rib: Dict[int, Route] = {asn: Route(destination=asn, path=(asn,))}
                for neighbor in sorted(self.network.as_neighbors(asn)):
                    received = round_announcements.get((neighbor, asn), {})
                    for dest, route in received.items():
                        if asn in route.path:
                            continue
                        candidate = Route(
                            destination=dest,
                            path=(asn,) + route.path,
                            selected_by=ControlPoint.PROVIDER,
                        )
                        incumbent = new_rib.get(dest)
                        if incumbent is None:
                            new_rib[dest] = candidate
                        else:
                            new_rib[dest] = self.policy.prefer(
                                self.network, asn, incumbent, candidate
                            )
                if new_rib != self._rib[asn]:
                    changed = True
                self._rib[asn] = new_rib
            self.announcements = round_announcements
            announced = sum(len(routes)
                            for routes in round_announcements.values())
            total_announced += announced
            if trace is not None:
                trace.event("routing.pathvector", "iteration",
                            float(iteration), announcements=announced,
                            changed=changed)
            if metrics is not None:
                metrics.counter("iterations").inc()
                metrics.counter("announcements").inc(announced)
            if not changed:
                self._converged = True
                self.iterations_used = iteration
                if span is not None:
                    span.end(float(iteration), iterations=iteration,
                             announcements=total_announced)
                return iteration
        if span is not None:
            span.end(float(self.max_iterations), converged=False,
                     announcements=total_announced)
        raise RoutingError(
            f"path-vector routing failed to converge in {self.max_iterations} iterations"
        )

    def converge_fast(self, destinations: Optional[Tuple[int, ...]] = None) -> int:
        """Compute the same fixed point via the array-batched fast path.

        Delegates to :func:`tussle.scale.vrouting.converge_valley_free`,
        which exploits Gao-Rexford structure to reach the unique stable
        selection in three propagation phases instead of whole-RIB
        announce/select rounds — seconds, not minutes, at 10^3-10^4
        ASes.  Queries (``routes``/``as_path``/``reachable``/
        ``transit_load``/``reachability_matrix``) then read the array
        RIB; per-round ``announced_routes`` visibility is the one thing
        the fast path cannot answer, since it never materialises rounds.

        ``destinations`` restricts the RIB to those destination ASes
        (the 10^4-AS mode).  Only the default Gao-Rexford policy is
        eligible; bespoke policies need the scalar protocol.  Returns
        the number of propagation levels (the iteration-count analogue).
        """
        if type(self.policy) is not GaoRexfordPolicy:
            raise RoutingError(
                "converge_fast() implements the Gao-Rexford policy only; "
                f"{type(self.policy).__name__} needs the scalar converge()")
        self._rib = {}
        self.announcements = {}
        self._fast = converge_valley_free(self.network, destinations)
        self._converged = True
        self.iterations_used = self._fast.levels
        return self.iterations_used

    @property
    def fast_rib(self):
        """The array-backed RIB built by :meth:`converge_fast`.

        Consumers that run whole-RIB kernels (e.g. the peering layer's
        traffic-volume pass) read the
        :class:`~tussle.scale.vrouting.RibArrays` directly instead of
        issuing per-pair queries.  Raises :class:`RoutingError` when the
        protocol converged via the scalar path (or not at all) — the
        arrays only exist on the fast path.
        """
        self._check_converged()
        if self._fast is None:
            raise RoutingError(
                "fast_rib is only available after converge_fast(); the "
                "scalar converge() keeps a per-AS dict RIB instead")
        return self._fast

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def routes(self, asn: int) -> Dict[int, Route]:
        self._check_converged()
        if self._fast is not None:
            self._fast.index.of(asn)  # raises on unknown AS
            rib: Dict[int, Route] = {}
            for dst in self._fast.dest_asns:
                path = self._fast.as_path(asn, dst)
                if path is not None:
                    rib[dst] = Route(destination=dst, path=path,
                                     selected_by=ControlPoint.PROVIDER
                                     if len(path) > 1 else None)
            return rib
        try:
            return dict(self._rib[asn])
        except KeyError:
            raise RoutingError(f"unknown AS {asn}") from None

    def reachable(self, src: int, dst: int) -> bool:
        if self._fast is not None:
            self._check_converged()
            return self._fast.reachable(src, dst)
        return dst in self.routes(src)

    def as_path(self, src: int, dst: int) -> Optional[Tuple[int, ...]]:
        if self._fast is not None:
            self._check_converged()
            return self._fast.as_path(src, dst)
        route = self.routes(src).get(dst)
        return route.path if route else None

    def announced_routes(self, frm: int, to: int) -> Dict[int, Route]:
        """What ``frm`` announced to ``to`` in the final round."""
        self._check_converged()
        if self._fast is not None:
            raise RoutingError(
                "per-round announcement visibility requires the scalar "
                "converge(); converge_fast() never materialises rounds")
        return dict(self.announcements.get((frm, to), {}))

    def transit_load(self, asn: int) -> int:
        """Number of (src, dst) selected routes transiting ``asn``."""
        self._check_converged()
        if self._fast is not None:
            return int(self._fast.transit_load()[self._fast.index.of(asn)])
        count = 0
        for src, rib in self._rib.items():
            if src == asn:
                continue
            for route in rib.values():
                if route.through(asn):
                    count += 1
        return count

    def reachability_matrix(self) -> Dict[Tuple[int, int], bool]:
        """(src, dst) -> reachable, over the converged destination set."""
        self._check_converged()
        asns = [a.asn for a in self.network.ases]
        if self._fast is not None:
            return {
                (s, d): self._fast.reachable(s, d)
                for s in asns
                for d in self._fast.dest_asns
                if s != d
            }
        return {
            (s, d): d in self._rib[s]
            for s in asns
            for d in asns
            if s != d
        }

    def _check_converged(self) -> None:
        if not self._converged:
            raise RoutingError("call converge() first")
