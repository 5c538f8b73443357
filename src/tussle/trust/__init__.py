"""Trust substrate (§V-B): identity, trust graphs, firewalls, threats."""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".identity": ("IdentityFramework", "IdentityScheme", "Principal"),
    ".trustgraph": ("TrustGraph",),
    ".firewall": ("ControlChannel", "PinholeRequest", "PolicyAuthority",
                  "TrustAwareFirewall"),
    ".threats": ("AttackKind", "Attacker", "ThreatCampaign", "TrafficMix"),
})
