"""Application design guidelines (§VI-A).

"If application designers want to preserve choice and end user
empowerment, they should be given advice about how to design applications
to achieve this goal. This observation suggests that we should generate
'application design guidelines' that would help designers avoid pitfalls,
and deal with the tussles of success."

This module is that advice, executable: an :class:`ApplicationDesign`
describes an application's structure (which roles the user can choose,
what third parties mediate, how data is protected, what happens on
failure), and :func:`audit` checks it against the guidelines distilled
from the paper. Each guideline cites its source passage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Set


__all__ = [
    "Severity",
    "Guideline",
    "Finding",
    "ApplicationDesign",
    "GUIDELINES",
    "audit",
]


class Severity(Enum):
    """How badly a violation undermines tussle-readiness."""

    ADVISORY = "advisory"
    SERIOUS = "serious"


@dataclass(frozen=True)
class Guideline:
    """One rule, its rationale, and the predicate that checks it."""

    identifier: str
    title: str
    rationale: str
    severity: Severity
    check: Callable[["ApplicationDesign"], bool] = field(compare=False)


@dataclass
class Finding:
    """A guideline violation found by the audit."""

    guideline: Guideline
    detail: str

    @property
    def serious(self) -> bool:
        return self.guideline.severity is Severity.SERIOUS


@dataclass
class ApplicationDesign:
    """Structural description of an application, for auditing.

    Attributes
    ----------
    user_selectable_roles:
        Service roles the end user can point at an alternative provider
        (the mail system's SMTP and POP servers are the paper's example).
    fixed_roles:
        Roles hard-wired to one provider (no choice).
    third_parties:
        Mediator roles the application involves (certificates,
        reputation, payment).
    third_parties_selectable:
        Whether the user can choose *which* third parties mediate.
    supports_encryption / encryption_user_controlled:
        Can the data be end-to-end encrypted, and does the *user* decide?
    reports_failures:
        Does the application surface interference/failures usefully?
    interfaces_open:
        Are the protocols between components open and well-specified?
    value_flow_designed:
        If the application needs compensation to flow, is there a
        mechanism for it?
    needs_value_flow:
        Whether the application economically requires compensation at all.
    preconfigured_defaults:
        Whether naive users get working defaults despite all the choice
        ("for naive users, choice may be a burden, not a blessing").
    """

    name: str
    user_selectable_roles: Set[str] = field(default_factory=set)
    fixed_roles: Set[str] = field(default_factory=set)
    third_parties: Set[str] = field(default_factory=set)
    third_parties_selectable: bool = True
    supports_encryption: bool = False
    encryption_user_controlled: bool = False
    reports_failures: bool = False
    interfaces_open: bool = True
    value_flow_designed: bool = False
    needs_value_flow: bool = False
    preconfigured_defaults: bool = False


def _choice_of_services(design: ApplicationDesign) -> bool:
    # "Protocols must permit all the parties to express choice" — every
    # service role should be user-selectable.
    return not design.fixed_roles


def _third_party_choice(design: ApplicationDesign) -> bool:
    return not design.third_parties or design.third_parties_selectable


def _encryption_available(design: ApplicationDesign) -> bool:
    return design.supports_encryption


def _encryption_user_controlled(design: ApplicationDesign) -> bool:
    return not design.supports_encryption or design.encryption_user_controlled


def _failure_reporting(design: ApplicationDesign) -> bool:
    return design.reports_failures


def _open_interfaces(design: ApplicationDesign) -> bool:
    return design.interfaces_open


def _value_flow(design: ApplicationDesign) -> bool:
    return not design.needs_value_flow or design.value_flow_designed


def _defaults_for_naive_users(design: ApplicationDesign) -> bool:
    if not design.user_selectable_roles and not design.third_parties:
        return True
    return design.preconfigured_defaults


#: The guideline catalogue, each citing the paper.
GUIDELINES: List[Guideline] = [
    Guideline(
        identifier="G1",
        title="Every service role is user-selectable",
        rationale=("'It is important that protocols be designed in such a "
                   "way that all the parties to an interaction have the "
                   "ability to express preference about which other parties "
                   "they interact with' (§IV-B)"),
        severity=Severity.SERIOUS,
        check=_choice_of_services,
    ),
    Guideline(
        identifier="G2",
        title="Third-party mediators are chosen by the user",
        rationale=("'There should be explicit ability to select what third "
                   "parties are used to mediate an interaction' (§V-B)"),
        severity=Severity.SERIOUS,
        check=_third_party_choice,
    ),
    Guideline(
        identifier="G3",
        title="End-to-end encryption is available",
        rationale=("'The ultimate defense of the end-to-end mode is "
                   "end-to-end encryption' (§VI-A)"),
        severity=Severity.SERIOUS,
        check=_encryption_available,
    ),
    Guideline(
        identifier="G4",
        title="The user controls whether data is encrypted",
        rationale=("'If the user has control over whether the data is "
                   "encrypted or not, the user can decide if the ISP "
                   "actions are a benefit or a hindrance' (§VI-A)"),
        severity=Severity.ADVISORY,
        check=_encryption_user_controlled,
    ),
    Guideline(
        identifier="G5",
        title="Failures of transparency are reported usefully",
        rationale=("'Failures of transparency will occur — design what "
                   "happens then... report the problem to the right person "
                   "in the right language' (§VI-A)"),
        severity=Severity.SERIOUS,
        check=_failure_reporting,
    ),
    Guideline(
        identifier="G6",
        title="Interfaces between components are open",
        rationale=("'Open interfaces have played a critical role in the "
                   "evolution of the Internet, by allowing for competition' "
                   "(§IV-C)"),
        severity=Severity.SERIOUS,
        check=_open_interfaces,
    ),
    Guideline(
        identifier="G7",
        title="If compensation must flow, a value-flow mechanism exists",
        rationale=("'Whatever the compensation, recognize that it must "
                   "flow, just as much as data must flow... If this value "
                   "flow requires a protocol, design it' (§IV-C)"),
        severity=Severity.SERIOUS,
        check=_value_flow,
    ),
    Guideline(
        identifier="G8",
        title="Naive users get working defaults despite the choice",
        rationale=("'For naive users, choice may be a burden, not a "
                   "blessing... parties that provide pre-configured "
                   "software relieve the user of the details of choice' "
                   "(§IV-B)"),
        severity=Severity.ADVISORY,
        check=_defaults_for_naive_users,
    ),
]


def audit(design: ApplicationDesign) -> List[Finding]:
    """Audit a design against every guideline; returns violations only."""
    findings: List[Finding] = []
    for guideline in GUIDELINES:
        if not guideline.check(design):
            findings.append(Finding(
                guideline=guideline,
                detail=f"{design.name!r} violates {guideline.identifier}: "
                       f"{guideline.title}",
            ))
    return findings


def tussle_readiness_grade(design: ApplicationDesign) -> str:
    """Letter grade: A (clean) .. F (multiple serious violations)."""
    findings = audit(design)
    serious = sum(1 for f in findings if f.serious)
    advisory = len(findings) - serious
    if serious == 0 and advisory == 0:
        return "A"
    if serious == 0:
        return "B"
    if serious == 1:
        return "C"
    if serious == 2:
        return "D"
    return "F"


__all__.append("tussle_readiness_grade")
