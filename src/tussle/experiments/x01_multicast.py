"""X01 — The multicast post-mortem (§VII footnote 19).

"The case study of the failure to deploy multicast is left as an exercise
for the reader." This experiment does the exercise.

Hypothesis (from the model in :mod:`tussle.econ.investment`): multicast
adds a *coordination* failure on top of QoS's incentive failure. An open
multicast service is useful only when (nearly) everyone deploys it, so
the deployment game is a stag hunt: universal open deployment is an
equilibrium, but so is staying out — and a lone deployer loses money.
Even with both of the paper's QoS fixes (value flow + user choice), the
industry can rationally sit in the no-deploy/closed trap forever.

The experiment contrasts the QoS and multicast factorials cell by cell.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..econ.investment import DeploymentChoice, InvestmentModel, deployment_game
from .common import ExperimentResult, Table

__all__ = ["run_x01", "multicast_model"]


def multicast_model() -> InvestmentModel:
    """The deployment game for multicast.

    Multicast differs from QoS in one structural way: an *open*
    multicast service is only useful when (nearly) everyone deploys it.
    A lone deployer's island realizes a tenth of the service's value and
    draws few users, and the closed, bundled version earns less than
    QoS's.  That makes the game a coordination (stag-hunt) game.
    """
    return InvestmentModel(closed_service_revenue=12.0, solo_coverage=0.1,
                           island_attractiveness=0.3)


def run_x01(model: InvestmentModel = None,
            seed: int = 0) -> ExperimentResult:
    # `seed` satisfies the uniform run(seed=...) harness contract; the
    # factorial deployment game is fully deterministic.
    model = model or multicast_model()

    table = Table(
        "X01: multicast deployment equilibria per factorial cell",
        ["value_flow", "user_choice", "equilibria", "coordination_trap"],
    )
    multicast_cells: Dict[Tuple[bool, bool], object] = {}
    for cell in deployment_game(model):
        multicast_cells[(cell.value_flow, cell.user_choice)] = cell
        table.add_row(
            value_flow=cell.value_flow,
            user_choice=cell.user_choice,
            equilibria=", ".join(e.value for e in cell.equilibria),
            coordination_trap=cell.coordination_trap,
        )

    contrast = Table(
        "X01b: QoS vs multicast in the best (value-flow, user-choice) cell",
        ["capability", "open_unique_equilibrium", "trap"],
    )
    qos_best = [c for c in deployment_game()
                if c.value_flow and c.user_choice][0]
    multicast_best = multicast_cells[(True, True)]
    contrast.add_row(
        capability="qos",
        open_unique_equilibrium=qos_best.open_deployment,
        trap=False,
    )
    contrast.add_row(
        capability="multicast",
        open_unique_equilibrium=(
            multicast_best.equilibria == [DeploymentChoice.DEPLOY_OPEN]),
        trap=multicast_best.coordination_trap,
    )

    result = ExperimentResult(
        experiment_id="X01",
        title="Multicast: the reader's exercise",
        paper_claim=("Multicast failed to emerge as an open end-to-end "
                     "service (§VII); the model's account: a coordination "
                     "trap that persists even when the QoS incentive "
                     "failures are fixed."),
        tables=[table, contrast],
    )

    best = multicast_cells[(True, True)]
    result.add_check(
        "even with value flow AND user choice, multicast has a "
        "coordination trap (open is stable, but so is not getting there)",
        best.coordination_trap
        and DeploymentChoice.DEPLOY_OPEN in best.equilibria,
        detail=best.describe(),
    )
    result.add_check(
        "a lone open deployer loses money (the stag-hunt defection payoff)",
        model.payoff(DeploymentChoice.DEPLOY_OPEN,
                     DeploymentChoice.NO_DEPLOY, True, True) < 0,
        detail=(f"solo open payoff "
                f"{model.payoff(DeploymentChoice.DEPLOY_OPEN, DeploymentChoice.NO_DEPLOY, True, True):.0f}"),
    )
    result.add_check(
        "QoS's best cell has a unique open equilibrium; multicast's does not",
        qos_best.open_deployment
        and len(multicast_best.equilibria) > 1,
        detail=(f"multicast equilibria: "
                f"{[e.value for e in multicast_best.equilibria]}"),
    )
    result.add_check(
        "without value flow, a solo open deployment strictly loses money",
        all(model.payoff(DeploymentChoice.DEPLOY_OPEN,
                         DeploymentChoice.NO_DEPLOY, False, choice) < 0
            for choice in (False, True)),
        detail="the revenue term is zero in every no-value-flow cell",
    )
    return result
