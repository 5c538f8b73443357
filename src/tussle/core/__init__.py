"""The paper's primary contribution, made executable.

Stakeholders with conflicting interests, mechanisms as control points,
tussle spaces, the round-based adaptation simulator, the design principles
(tussle isolation, design for choice, rigidity, openness) as metrics,
spillover measurement, coupled spaces and the design guidelines.
"""

from .stakeholders import Interest, Stakeholder, StakeholderKind
from .mechanisms import Mechanism, Move, MoveKind
from .tussle import TussleSpace
from .design import Design, Function, Interface, Module
from .principles import (
    PrincipleScorecard,
    choice_index,
    isolation_score,
    openness_score,
    rigidity,
    scorecard,
)
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
    "PrincipleScorecard", "choice_index", "isolation_score",
    "openness_score", "rigidity", "scorecard",
    "DnsScenarioResult", "SpilloverReport", "dns_spillover",
    "spillover_from_event",
    "RoundRecord", "TussleOutcome", "TussleSimulator",
    "GUIDELINES", "ApplicationDesign", "Finding", "Guideline", "Severity",
    "audit", "tussle_readiness_grade",
    "MultiSpaceResult", "MultiSpaceSimulator", "SpaceRecord",
]
