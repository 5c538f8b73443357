"""E07 — The QoS deployment post-mortem (§VII).

Paper claim: explicit QoS failed to emerge as an *open* end-to-end service
because of "a failure first to design any value-transfer mechanism to give
the providers the possibility of being rewarded for making the investment
(greed), and second, a failure to couple the design to a mechanism whereby
the user can exercise choice to select the provider who offered the
service (competitive fear)." Absent those, ISPs that deploy at all do so
*closed* — "if they deploy QoS mechanisms but only turn them on for
applications that they sell... they can price it at monopoly prices."

Workload: the symmetric deployment game of
:mod:`tussle.econ.investment`, run over the 2x2 factorial (value flow x
user choice), plus the ablation where closed deployment is impossible.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..econ.investment import DeploymentChoice, InvestmentModel, deployment_game
from .common import ExperimentResult, Table

__all__ = ["run_e07"]


def run_e07(model: InvestmentModel = None,
            seed: int = 0) -> ExperimentResult:
    # `seed` satisfies the uniform run(seed=...) harness contract; the
    # deployment-game sweep is fully deterministic.
    model = model or InvestmentModel()

    table = Table(
        "E07: QoS deployment equilibrium per factorial cell",
        ["value_flow", "user_choice", "equilibrium", "open_deployment"],
    )
    cells = deployment_game(model, allow_closed=True)
    outcomes: Dict[Tuple[bool, bool], DeploymentChoice] = {}
    for cell in cells:
        outcomes[(cell.value_flow, cell.user_choice)] = cell.outcome
        table.add_row(
            value_flow=cell.value_flow,
            user_choice=cell.user_choice,
            equilibrium=cell.outcome.value,
            open_deployment=cell.open_deployment,
        )

    ablation = Table(
        "E07b (ablation): equilibria when closed deployment is impossible",
        ["value_flow", "user_choice", "equilibrium"],
    )
    ablation_outcomes: Dict[Tuple[bool, bool], DeploymentChoice] = {}
    for cell in deployment_game(model, allow_closed=False):
        ablation_outcomes[(cell.value_flow, cell.user_choice)] = cell.outcome
        ablation.add_row(
            value_flow=cell.value_flow,
            user_choice=cell.user_choice,
            equilibrium=cell.outcome.value,
        )

    result = ExperimentResult(
        experiment_id="E07",
        title="QoS deployment: fear and greed factorial",
        paper_claim=("Open QoS deployment requires BOTH a value-flow mechanism "
                     "(greed) AND user provider-choice (fear); otherwise "
                     "deployment is closed (vertical integration) or absent."),
        tables=[table, ablation],
    )

    result.add_check(
        "open deployment happens ONLY in the (value-flow, user-choice) cell",
        outcomes[(True, True)] is DeploymentChoice.DEPLOY_OPEN
        and all(
            outcomes[cell] is not DeploymentChoice.DEPLOY_OPEN
            for cell in [(False, False), (False, True), (True, False)]
        ),
        detail=str({k: v.value for k, v in outcomes.items()}),
    )
    result.add_check(
        "cells lacking either factor produce CLOSED deployment "
        "(the monopoly-priced bundled service)",
        all(
            outcomes[cell] is DeploymentChoice.DEPLOY_CLOSED
            for cell in [(False, False), (False, True), (True, False)]
        ),
        detail="vertical integration monetizes without open value flow",
    )
    result.add_check(
        "ablation: with closed deployment impossible and no user choice, "
        "QoS simply does not deploy (the observed Internet outcome)",
        ablation_outcomes[(False, False)] is DeploymentChoice.NO_DEPLOY
        and ablation_outcomes[(True, False)] is DeploymentChoice.NO_DEPLOY,
        detail=str({k: v.value for k, v in ablation_outcomes.items()}),
    )
    result.add_check(
        "ablation: both factors together still produce open deployment",
        ablation_outcomes[(True, True)] is DeploymentChoice.DEPLOY_OPEN,
        detail="the paper's prescription survives the ablation",
    )
    return result
