"""Graph analysis of actor networks (via networkx).

Latour's claim — technology is "a central anchor in this network"
(§II-A) — is a *structural* claim, so it gets structural measurements:

* :func:`to_networkx` — export the commitment graph;
* :func:`anchor_scores` — commitment-weighted centrality per actor;
* :func:`central_anchor` — the single most anchoring actor, which in a
  healthy Internet-like network should be a technology actor;
* :func:`fragmentation_if_removed` — how many pieces the network falls
  into without a given actor: the anchor's removal shatters it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .network import ActorNetwork

# networkx is imported inside the functions that call it: no experiment
# reaches this module, so importing ``tussle.actornet`` does not pay for it.
if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "to_networkx",
    "anchor_scores",
    "central_anchor",
    "fragmentation_if_removed",
    "technology_is_central_anchor",
]


def to_networkx(network: ActorNetwork) -> "nx.Graph":
    """Export the commitment graph as a weighted networkx graph.

    Nodes carry ``kind`` and ``human`` attributes; edges carry the
    commitment ``weight``.
    """
    import networkx as nx

    graph = nx.Graph()
    for actor in network.actors:
        graph.add_node(actor.name, kind=actor.kind.value, human=actor.human)
    for commitment in network.commitments:
        graph.add_edge(commitment.a, commitment.b, weight=commitment.strength)
    return graph


def anchor_scores(network: ActorNetwork) -> Dict[str, float]:
    """Commitment-weighted eigenvector-style centrality per actor.

    Uses networkx eigenvector centrality on commitment weights, falling
    back to weighted degree centrality when the iteration cannot converge
    (tiny or degenerate graphs).
    """
    import networkx as nx

    graph = to_networkx(network)
    if graph.number_of_edges() == 0:
        return {actor.name: 0.0 for actor in network.actors}
    try:
        return dict(nx.eigenvector_centrality(graph, weight="weight",
                                              max_iter=1000))
    except nx.PowerIterationFailedConvergence:
        degree = dict(graph.degree(weight="weight"))
        total = sum(degree.values()) or 1.0
        return {name: value / total for name, value in degree.items()}


def central_anchor(network: ActorNetwork) -> Optional[str]:
    """The actor with the highest anchor score (None for empty networks)."""
    scores = anchor_scores(network)
    if not scores or all(value == 0.0 for value in scores.values()):
        return None
    return max(sorted(scores), key=lambda name: scores[name])


def fragmentation_if_removed(network: ActorNetwork, actor_name: str) -> int:
    """Connected components of the commitment graph without one actor.

    A true anchor's removal fragments the network into many pieces; a
    peripheral actor's removal leaves it whole (1 component).
    """
    import networkx as nx

    network.actor(actor_name)
    graph = to_networkx(network)
    graph.remove_node(actor_name)
    if graph.number_of_nodes() == 0:
        return 0
    return nx.number_connected_components(graph)


def technology_is_central_anchor(network: ActorNetwork) -> bool:
    """Latour's claim, testable: is the top anchor a nonhuman actor?"""
    anchor = central_anchor(network)
    if anchor is None:
        return False
    return not network.actor(anchor).human
