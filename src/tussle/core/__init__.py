"""The paper's primary contribution, made executable.

Stakeholders with conflicting interests, mechanisms as control points,
tussle spaces, the round-based adaptation simulator, two design principles (tussle
isolation and rigidity) as metrics, spillover measurement, coupled spaces
and the design guidelines.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".stakeholders": ("Interest", "Stakeholder", "StakeholderKind"),
    ".mechanisms": ("Mechanism", "Move", "MoveKind"),
    ".tussle": ("TussleSpace",),
    ".design": ("Design", "Function", "Interface", "Module"),
    ".principles": ("isolation_score", "rigidity"),
    ".spillover": ("DnsScenarioResult", "SpilloverReport", "dns_spillover",
                   "spillover_from_event"),
    ".simulator": ("RoundRecord", "TussleOutcome", "TussleSimulator"),
    ".coupling": ("MultiSpaceResult", "MultiSpaceSimulator", "SpaceRecord"),
    ".guidelines": ("GUIDELINES", "ApplicationDesign", "Finding", "Guideline",
                    "Severity", "audit", "tussle_readiness_grade"),
})
