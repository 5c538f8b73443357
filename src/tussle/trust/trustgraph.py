"""Pairwise trust with bounded transitive propagation.

"Mechanisms that regulate interaction on the basis of mutual trust should
be a fundamental part of the Internet of tomorrow" (§V-B). The trust graph
holds directed trust scores in [0, 1]; indirect trust is the best
path-product with per-hop decay (trust dilutes through intermediaries),
computed by a Dijkstra-style search.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..errors import TrustError

__all__ = ["TrustGraph"]


class TrustGraph:
    """Directed weighted trust between parties.

    Parameters
    ----------
    decay:
        Multiplier applied per propagation hop beyond the first; models
        dilution of transitive trust.
    max_hops:
        Longest chain considered when inferring indirect trust.
    """

    def __init__(self, decay: float = 0.8, max_hops: int = 3):
        if not 0.0 < decay <= 1.0:
            raise TrustError(f"decay must be in (0, 1], got {decay}")
        if max_hops < 1:
            raise TrustError("max_hops must be at least 1")
        self.decay = decay
        self.max_hops = max_hops
        self._edges: Dict[str, Dict[str, float]] = {}
        self._parties: Set[str] = set()

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def set_trust(self, truster: str, trustee: str, score: float) -> None:
        """Record that ``truster`` trusts ``trustee`` at ``score``."""
        if truster == trustee:
            raise TrustError("self-trust is implicit; do not record it")
        if not 0.0 <= score <= 1.0:
            raise TrustError(f"trust score must be in [0, 1], got {score}")
        self._edges.setdefault(truster, {})[trustee] = score
        self._parties.add(truster)
        self._parties.add(trustee)

    def direct_trust(self, truster: str, trustee: str) -> Optional[float]:
        return self._edges.get(truster, {}).get(trustee)

    @property
    def parties(self) -> List[str]:
        return sorted(self._parties)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def trust(self, truster: str, trustee: str) -> float:
        """Effective trust: direct if present, else best decayed chain.

        The score of a chain t -> a -> b -> ... -> trustee is the product
        of edge scores times decay^(hops - 1); the maximum over chains of
        length <= max_hops is returned (0 when unreachable).
        """
        if truster == trustee:
            return 1.0
        direct = self.direct_trust(truster, trustee)
        best = direct if direct is not None else 0.0

        # Max-product search with hop budget (scores <= 1, so products
        # only shrink; a visited-with-better-score check keeps it finite).
        heap: List[Tuple[float, int, str]] = [(-1.0, 0, truster)]
        seen: Dict[Tuple[str, int], float] = {}
        while heap:
            negative_score, hops, node = heapq.heappop(heap)
            score = -negative_score
            if hops >= self.max_hops:
                continue
            for neighbor, edge in self._edges.get(node, {}).items():
                chained = score * edge * (self.decay if hops >= 1 else 1.0)
                if neighbor == trustee:
                    best = max(best, chained)
                    continue
                key = (neighbor, hops + 1)
                if seen.get(key, 0.0) >= chained:
                    continue
                seen[key] = chained
                heapq.heappush(heap, (-chained, hops + 1, neighbor))
        return best

    def trusts(self, truster: str, trustee: str, threshold: float = 0.5) -> bool:
        """Binary decision at a threshold."""
        return self.trust(truster, trustee) >= threshold
