"""A routing policy with no business interests, for the routing tests.

The tests inject :class:`OpenPolicy` as the tussle-free counterfactual
to Gao–Rexford: with it, path-vector routing reduces to shortest-AS-path
routing and every feasible path is announced.  The valley-free fast path
must refuse it.
"""

from dataclasses import dataclass

from tussle.routing.policies import RoutingPolicy


@dataclass
class OpenPolicy(RoutingPolicy):
    """Announce-everything, prefer-shortest.

    Tie-breaking follows the same documented total order as
    :class:`~tussle.routing.policies.GaoRexfordPolicy` minus the class
    term: shorter AS path, then lower next-hop ASN, then lexicographically
    smaller AS path.
    """

    def prefer(self, network, me, a, b):
        return min((a, b), key=lambda r: (r.length, r.next_hop, r.path))

    def may_export(self, network, me, route, to_neighbor):
        return True
