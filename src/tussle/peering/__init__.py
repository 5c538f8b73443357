"""``tussle.peering`` — Nash bargaining over interconnection.

The paper's §V-A-4 names interconnection as the place where the money
tussle and the routing tussle are the *same* tussle: who carries whose
traffic is simultaneously a routing decision and a payment flow.  This
package models that coupling end to end, at topogen scale:

* :mod:`~tussle.peering.value` — what an interconnect is worth: a
  gravity demand matrix over the generated internet's stubs
  (:mod:`tussle.scale.tmatrix`), pushed along the converged valley-free
  routes (:meth:`~tussle.routing.pathvector.PathVectorRouting.converge_fast`)
  into directed per-edge volumes and per-AS transit/peering accounts.
* :mod:`~tussle.peering.bargain` — how the worth is divided: the Nash
  bargaining solution over the peering surplus, with transit along
  current routes as the disagreement point; settlement-free vs paid
  peering falls out of traffic imbalance, and honoring an agreement is
  a repeated game (:mod:`tussle.gametheory.repeated`).
* :mod:`~tussle.peering.dynamics` — the feedback loop: agreements
  rewrite the AS relationship graph, routes reconverge, traffic and
  value shift, agreements are re-bargained — iterated to a
  deterministic fixed point (or a structured oscillation verdict).

Experiments P01 (paid-peering dispute) and P02 (depeering war at
10^3-AS scale) drive the loop; ``tests/peering/`` holds the bargaining
core to its game-theoretic properties with Hypothesis.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".bargain": ("AgreementKind", "BargainOutcome", "PeeringAgreement",
                 "depeering_stage_game", "evaluate_pair", "nash_bargain",
                 "peering_sustainable"),
    ".dynamics": ("FixedPointResult", "IterationRecord", "PeeringDynamics"),
    ".value": ("AsAccount", "PairTraffic", "PeeringEconomics", "TrafficMatrix",
               "as_accounts", "cone_traffic", "customer_cones", "edge_traffic",
               "route_volumes"),
})
