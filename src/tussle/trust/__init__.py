"""Trust substrate (§V-B): identity, trust graphs, firewalls, threats."""

from .identity import IdentityFramework, IdentityScheme, Principal
from .trustgraph import TrustGraph
from .firewall import (
    ControlChannel,
    PinholeRequest,
    PolicyAuthority,
    TrustAwareFirewall,
)
from .threats import AttackKind, Attacker, ThreatCampaign, TrafficMix

__all__ = [
    "IdentityFramework", "IdentityScheme", "Principal",
    "TrustGraph",
    "ControlChannel", "PinholeRequest", "PolicyAuthority", "TrustAwareFirewall",
    "AttackKind", "Attacker", "ThreatCampaign", "TrafficMix",
]
