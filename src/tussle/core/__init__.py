"""The paper's primary contribution, made executable.

Stakeholders with conflicting interests, mechanisms as control points,
tussle spaces, the round-based adaptation simulator, two design principles (tussle
isolation and rigidity) as metrics, spillover measurement, coupled spaces
and the design guidelines.
"""

from .stakeholders import Interest, Stakeholder, StakeholderKind
from .mechanisms import Mechanism, Move, MoveKind
from .tussle import TussleSpace
from .design import Design, Function, Interface, Module
from .principles import isolation_score, rigidity
from .spillover import (
    DnsScenarioResult,
    SpilloverReport,
    dns_spillover,
    spillover_from_event,
)
from .simulator import RoundRecord, TussleOutcome, TussleSimulator
from .coupling import MultiSpaceResult, MultiSpaceSimulator, SpaceRecord
from .guidelines import (
    GUIDELINES,
    ApplicationDesign,
    Finding,
    Guideline,
    Severity,
    audit,
    tussle_readiness_grade,
)

__all__ = [
    "Interest", "Stakeholder", "StakeholderKind",
    "Mechanism", "Move", "MoveKind",
    "TussleSpace",
    "Design", "Function", "Interface", "Module",
    "isolation_score", "rigidity",
    "DnsScenarioResult", "SpilloverReport", "dns_spillover",
    "spillover_from_event",
    "RoundRecord", "TussleOutcome", "TussleSimulator",
    "GUIDELINES", "ApplicationDesign", "Finding", "Guideline", "Severity",
    "audit", "tussle_readiness_grade",
    "MultiSpaceResult", "MultiSpaceSimulator", "SpaceRecord",
]
