"""Tussle spaces: arenas where stakeholders and mechanisms meet.

A :class:`TussleSpace` bundles the state variables under contention, the
stakeholders who care about them, and the mechanisms (knobs and
workarounds) through which they act. It is the unit the simulator runs and
the unit the modularity principle isolates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..errors import TussleError
from .mechanisms import Mechanism
from .stakeholders import Stakeholder, StakeholderKind

__all__ = ["TussleSpace"]


class TussleSpace:
    """A named arena of contention.

    Parameters
    ----------
    name:
        The arena ("economics", "trust", "openness", ...).
    initial_state:
        Starting values of the contested variables (conventionally in
        [0, 1]).
    """

    def __init__(self, name: str, initial_state: Optional[Mapping[str, float]] = None):
        self.name = name
        self.state: Dict[str, float] = dict(initial_state or {})
        self._stakeholders: Dict[str, Stakeholder] = {}
        self._mechanisms: Dict[str, Mechanism] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_stakeholder(self, stakeholder: Stakeholder) -> Stakeholder:
        if stakeholder.name in self._stakeholders:
            raise TussleError(f"duplicate stakeholder {stakeholder.name!r}")
        self._stakeholders[stakeholder.name] = stakeholder
        return stakeholder

    def add_mechanism(self, mechanism: Mechanism) -> Mechanism:
        if mechanism.name in self._mechanisms:
            raise TussleError(f"duplicate mechanism {mechanism.name!r}")
        if mechanism.variable not in self.state:
            self.state[mechanism.variable] = 0.5
        self._mechanisms[mechanism.name] = mechanism
        return mechanism

    def set_variable(self, variable: str, value: float) -> None:
        self.state[variable] = value

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def stakeholders(self) -> List[Stakeholder]:
        return [self._stakeholders[k] for k in sorted(self._stakeholders)]

    @property
    def mechanisms(self) -> List[Mechanism]:
        return [self._mechanisms[k] for k in sorted(self._mechanisms)]

    def stakeholder(self, name: str) -> Stakeholder:
        try:
            return self._stakeholders[name]
        except KeyError:
            raise TussleError(f"unknown stakeholder {name!r}") from None

    def mechanism(self, name: str) -> Mechanism:
        try:
            return self._mechanisms[name]
        except KeyError:
            raise TussleError(f"unknown mechanism {name!r}") from None

    def variables(self) -> List[str]:
        return sorted(self.state)

    def mechanisms_for(self, variable: str,
                       kind: Optional[StakeholderKind] = None) -> List[Mechanism]:
        """Mechanisms moving a variable, optionally usable by a kind."""
        result = []
        for mechanism in self.mechanisms:
            if mechanism.variable != variable:
                continue
            if kind is not None and not mechanism.controllable_by(kind):
                continue
            result.append(mechanism)
        return result

    def total_welfare(self) -> float:
        """Sum of stakeholder utilities at the current state."""
        return sum(s.utility(self.state) for s in self.stakeholders)
