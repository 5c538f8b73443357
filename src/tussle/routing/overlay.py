"""Overlay networks: routing around the providers.

"Since source routes do not work effectively today, researchers propose
even more indirect ways of getting around provider-selected routing, such
as exploiting hosts as intermediate forwarding agents. (This kind of
overlay network is a tool in the tussle, certainly.)" (§V-A-4). The paper
also asks for overlay architectures to "be evaluated for their ability to
isolate tussles and provide choice."

:class:`OverlayNetwork` (RON-like, after the cited Resilient Overlay
Networks) relays traffic through member hosts, composing underlay routes.
It gives users path choice *without* provider cooperation — and, as the
paper notes, without compensating the providers whose links it rides,
which :meth:`uncompensated_transit` quantifies (the "economic distortion"
the paper asks to compare against integrated schemes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .base import ControlPoint
from .pathvector import PathVectorRouting

__all__ = ["OverlayNetwork", "OverlayPath", "overlay_regime"]


@dataclass(frozen=True)
class OverlayPath:
    """A path through overlay relays, with the underlay AS path it implies.

    ``relays`` lists member ASes traversed in overlay order (endpoints
    included); ``underlay_path`` is the concatenated provider-level path
    actually ridden.
    """

    relays: Tuple[int, ...]
    underlay_path: Tuple[int, ...]

    @property
    def overlay_hops(self) -> int:
        return len(self.relays) - 1


class OverlayNetwork:
    """Host-relay overlay over provider-selected (path-vector) routing.

    Parameters
    ----------
    underlay:
        A converged :class:`~tussle.routing.pathvector.PathVectorRouting`
        providing the provider-selected routes between members.
    members:
        ASes hosting overlay relay nodes.
    """

    control_point = ControlPoint.USER

    def __init__(self, underlay: PathVectorRouting, members: Sequence[int]):
        self.underlay = underlay
        self.members: List[int] = sorted(set(members))
        for asn in self.members:
            underlay.network.autonomous_system(asn)

    # ------------------------------------------------------------------
    # Path construction
    # ------------------------------------------------------------------
    def direct_path(self, src: int, dst: int) -> Optional[OverlayPath]:
        """The zero-relay path: just the underlay route."""
        path = self.underlay.as_path(src, dst)
        if path is None:
            return None
        return OverlayPath(relays=(src, dst), underlay_path=path)

    def one_relay_paths(self, src: int, dst: int) -> List[OverlayPath]:
        """All paths bouncing through exactly one member relay."""
        results: List[OverlayPath] = []
        for relay in self.members:
            if relay in (src, dst):
                continue
            leg1 = self.underlay.as_path(src, relay)
            leg2 = self.underlay.as_path(relay, dst)
            if leg1 is None or leg2 is None:
                continue
            underlay_path = leg1 + leg2[1:]
            results.append(OverlayPath(relays=(src, relay, dst),
                                       underlay_path=underlay_path))
        return results

    def all_paths(self, src: int, dst: int) -> List[OverlayPath]:
        """Direct plus one-relay paths, deterministic order."""
        paths: List[OverlayPath] = []
        direct = self.direct_path(src, dst)
        if direct is not None:
            paths.append(direct)
        paths.extend(self.one_relay_paths(src, dst))
        return paths

    def path_choice_count(self, src: int, dst: int) -> int:
        """How many *distinct underlay* paths the overlay offers the user."""
        return len({p.underlay_path for p in self.all_paths(src, dst)})

    # ------------------------------------------------------------------
    # Resilience (the RON use case)
    # ------------------------------------------------------------------
    def reachable_via_overlay(self, src: int, dst: int) -> bool:
        """Can src reach dst either directly or through any single relay?"""
        return bool(self.all_paths(src, dst))

    # ------------------------------------------------------------------
    # Economic distortion
    # ------------------------------------------------------------------
    def uncompensated_transit(self, src: int, dst: int) -> Dict[int, int]:
        """Per-AS count of overlay paths that transit it without payment.

        Overlay traffic rides business relationships negotiated for
        *member* traffic; transit ASes on the composed path carry src->dst
        traffic they never contracted for. This is the paper's "economic
        distortion" of overlays, measured per AS.
        """
        counts: Dict[int, int] = {}
        for path in self.all_paths(src, dst):
            for asn in path.underlay_path[1:-1]:
                counts[asn] = counts.get(asn, 0) + 1
        return counts


def overlay_regime(underlay: PathVectorRouting,
                   pairs: Sequence[Tuple[int, int]]) -> Tuple[int, int, int]:
    """The overlay regime over ``pairs``, with a relay at every endpoint:
    distinct underlay paths offered, pairs reachable through the
    overlay, and uncompensated transit hops, each summed over the pairs.
    """
    overlay = OverlayNetwork(underlay,
                             members=[asn for pair in pairs for asn in pair])
    choices = 0
    reachable = 0
    uncompensated = 0
    for src, dst in pairs:
        choices += overlay.path_choice_count(src, dst)
        if overlay.reachable_via_overlay(src, dst):
            reachable += 1
        uncompensated += sum(overlay.uncompensated_transit(src, dst).values())
    return choices, reachable, uncompensated
