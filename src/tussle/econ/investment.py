"""The fear-and-greed investment model (§V-A, §VII).

"A standard business saying is that the drivers of investment are fear and
greed... The vector of fear is competition, which results when the
consumer has choice."

The paper's QoS post-mortem (§VII) is a two-factor story:

* **greed** — open deployment pays only if (a) a value-transfer mechanism
  exists so the provider is "rewarded for making the investment", and
  (b) users can *route to* the deploying provider: "What was missing was
  routing, to allow the user to favor one ISP over another if that ISP
  honored the bits." Without routing choice, an open service reaches only
  the provider's captive access customers.
* **fear** — when users can choose providers, a rival offering a more
  attractive service steals customers; not deploying becomes costly.

A **closed** deployment (vertical integration) monetizes through the ISP's
own bundled applications at monopoly prices and needs neither factor —
"if they deploy QoS mechanisms but only turn them on for applications that
they sell... they can price it at monopoly prices" — but it is less
attractive to users than an open service, so under user choice it loses
customers to open rivals.

:class:`InvestmentModel` encodes these payoffs as a symmetric game among
identical ISPs; :func:`deployment_game` finds the symmetric pure
equilibria in each cell of the 2x2 factorial. For QoS (E07) the
paper's predicted shape is that *open* deployment appears only in the
(value-flow, user-choice) cell. The same model, with an open service
that is worth little until rivals deploy it too, is the multicast
exercise of X01.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..errors import MarketError

__all__ = [
    "DeploymentChoice",
    "InvestmentModel",
    "DeploymentCell",
    "deployment_game",
]


class DeploymentChoice(Enum):
    """What an ISP does with a new capability (QoS, multicast, ...)."""

    NO_DEPLOY = "no-deploy"
    DEPLOY_OPEN = "deploy-open"      # open end-to-end service
    DEPLOY_CLOSED = "deploy-closed"  # only for the ISP's own applications


@dataclass
class InvestmentModel:
    """Payoffs of the deployment game under fear and greed.

    Parameters
    ----------
    deployment_cost:
        Up-front cost ("spend money to upgrade routers and for management
        and operations. So there is a real cost.").
    open_service_revenue:
        Per-round revenue of an open deployment when a value-flow
        mechanism exists and users can route to the provider.
    captive_fraction:
        Fraction of open revenue reachable *without* user routing choice
        (only the provider's own access customers can use the service).
    closed_service_revenue:
        Per-round revenue of a closed, vertically-integrated deployment
        (monopoly-priced bundled service; needs no open value flow).
    churn_revenue_per_attractiveness:
        Per-round revenue gained/lost per unit of attractiveness advantage
        over rivals, when users can choose — the fear term.
    horizon:
        Rounds over which revenue accrues.
    solo_coverage:
        Fraction of the open service's value realized when rivals have
        not deployed it.  1.0 for QoS; small for multicast, where a
        single ISP's island covers almost no group members.
    island_attractiveness:
        Attractiveness to users of an open deployment no rival supports
        (closed is 1.0, no deployment 0.0).  2.0, the same as any open
        deployment, for QoS; low for multicast: you cannot multicast to
        people whose networks lack it.
    """

    deployment_cost: float = 100.0
    open_service_revenue: float = 20.0
    captive_fraction: float = 0.3
    closed_service_revenue: float = 35.0
    churn_revenue_per_attractiveness: float = 25.0
    horizon: int = 10
    solo_coverage: float = 1.0
    island_attractiveness: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.captive_fraction <= 1.0:
            raise MarketError("captive_fraction must be in [0, 1]")
        if not 0.0 <= self.solo_coverage <= 1.0:
            raise MarketError("solo_coverage must be in [0, 1]")
        if self.horizon <= 0:
            raise MarketError("horizon must be positive")

    # ------------------------------------------------------------------
    # Payoffs
    # ------------------------------------------------------------------
    def direct_revenue(
        self,
        choice: DeploymentChoice,
        value_flow_exists: bool,
        users_can_choose: bool,
    ) -> float:
        """Service revenue per round when rivals deploy open too, before
        churn effects."""
        if choice is DeploymentChoice.DEPLOY_OPEN:
            if not value_flow_exists:
                return 0.0
            reach = 1.0 if users_can_choose else self.captive_fraction
            return self.open_service_revenue * reach
        if choice is DeploymentChoice.DEPLOY_CLOSED:
            return self.closed_service_revenue
        return 0.0

    def _attractiveness(self, choice: DeploymentChoice,
                        rivals_open: bool) -> float:
        """How attractive ``choice`` is to users exercising choice."""
        if choice is DeploymentChoice.DEPLOY_OPEN:
            return 2.0 if rivals_open else self.island_attractiveness
        if choice is DeploymentChoice.DEPLOY_CLOSED:
            return 1.0
        return 0.0

    def payoff(
        self,
        my_choice: DeploymentChoice,
        rivals_choice: DeploymentChoice,
        value_flow_exists: bool,
        users_can_choose: bool,
    ) -> float:
        """My total profit when every rival plays ``rivals_choice``."""
        rivals_open = rivals_choice is DeploymentChoice.DEPLOY_OPEN
        revenue = self.direct_revenue(my_choice, value_flow_exists,
                                      users_can_choose)
        if my_choice is DeploymentChoice.DEPLOY_OPEN and not rivals_open:
            revenue *= self.solo_coverage
        churn = 0.0
        if users_can_choose:
            advantage = (self._attractiveness(my_choice, rivals_open)
                         - self._attractiveness(rivals_choice, rivals_open))
            churn = self.churn_revenue_per_attractiveness * advantage
        total = (revenue + churn) * self.horizon
        if my_choice is not DeploymentChoice.NO_DEPLOY:
            total -= self.deployment_cost
        return total

    # ------------------------------------------------------------------
    # Equilibrium
    # ------------------------------------------------------------------
    def symmetric_equilibria(
        self,
        value_flow_exists: bool,
        users_can_choose: bool,
        allow_closed: bool = True,
    ) -> List[DeploymentChoice]:
        """Symmetric pure-strategy equilibria of the deployment game.

        A profile where everyone plays ``c`` is an equilibrium when no ISP
        gains by unilaterally deviating.
        """
        choices = _choices(allow_closed)
        stable: List[DeploymentChoice] = []
        for candidate in choices:
            incumbent = self.payoff(candidate, candidate, value_flow_exists, users_can_choose)
            if all(
                self.payoff(dev, candidate, value_flow_exists, users_can_choose)
                <= incumbent + 1e-9
                for dev in choices
                if dev is not candidate
            ):
                stable.append(candidate)
        return stable

    def equilibrium_outcome(
        self,
        value_flow_exists: bool,
        users_can_choose: bool,
        allow_closed: bool = True,
    ) -> DeploymentChoice:
        """The predicted industry outcome for one factorial cell.

        When several symmetric equilibria exist, the profit-dominant one is
        selected (standard equilibrium refinement); if none exists, the
        best response to universal NO_DEPLOY is reported.
        """
        stable = self.symmetric_equilibria(value_flow_exists, users_can_choose, allow_closed)
        if stable:
            return max(
                stable,
                key=lambda c: (
                    self.payoff(c, c, value_flow_exists, users_can_choose),
                    -list(DeploymentChoice).index(c),
                ),
            )
        return max(
            _choices(allow_closed),
            key=lambda c: self.payoff(
                c, DeploymentChoice.NO_DEPLOY, value_flow_exists, users_can_choose
            ),
        )


def _choices(allow_closed: bool) -> List[DeploymentChoice]:
    choices = [DeploymentChoice.NO_DEPLOY, DeploymentChoice.DEPLOY_OPEN]
    if allow_closed:
        choices.append(DeploymentChoice.DEPLOY_CLOSED)
    return choices


@dataclass
class DeploymentCell:
    """One factorial cell: its conditions, symmetric equilibria and the
    predicted industry outcome."""

    value_flow: bool
    user_choice: bool
    equilibria: List[DeploymentChoice]
    outcome: DeploymentChoice

    @property
    def open_deployment(self) -> bool:
        return self.outcome is DeploymentChoice.DEPLOY_OPEN

    @property
    def coordination_trap(self) -> bool:
        """Universal open deployment is an equilibrium, and so is staying
        out (or closed): the industry can rationally never get there."""
        return (DeploymentChoice.DEPLOY_OPEN in self.equilibria
                and any(e is not DeploymentChoice.DEPLOY_OPEN
                        for e in self.equilibria))

    def describe(self) -> str:
        vf = "value-flow" if self.value_flow else "no-value-flow"
        uc = "user-choice" if self.user_choice else "no-user-choice"
        names = ",".join(e.value for e in self.equilibria)
        return f"{vf}/{uc}: equilibria={{{names}}} trap={self.coordination_trap}"


def deployment_game(
    model: Optional[InvestmentModel] = None,
    allow_closed: bool = True,
) -> List[DeploymentCell]:
    """Run the 2x2 deployment factorial, one :class:`DeploymentCell` per
    cell in (value_flow, user_choice) order: (F,F), (F,T), (T,F), (T,T)."""
    model = model or InvestmentModel()
    return [
        DeploymentCell(
            value_flow=value_flow,
            user_choice=user_choice,
            equilibria=model.symmetric_equilibria(
                value_flow, user_choice, allow_closed=allow_closed),
            outcome=model.equilibrium_outcome(
                value_flow, user_choice, allow_closed=allow_closed),
        )
        for value_flow in (False, True)
        for user_choice in (False, True)
    ]
