"""Tests for the fear-and-greed investment model (E07 substrate)."""

import pytest

from tussle.errors import MarketError
from tussle.econ.investment import (
    DeploymentChoice,
    InvestmentModel,
    deployment_game,
)


class TestPayoffs:
    def test_open_revenue_needs_value_flow(self):
        model = InvestmentModel()
        assert model.direct_revenue(DeploymentChoice.DEPLOY_OPEN,
                                    value_flow_exists=False,
                                    users_can_choose=True) == 0.0

    def test_open_revenue_shrinks_without_user_choice(self):
        model = InvestmentModel(open_service_revenue=20.0, captive_fraction=0.3)
        full = model.direct_revenue(DeploymentChoice.DEPLOY_OPEN, True, True)
        captive = model.direct_revenue(DeploymentChoice.DEPLOY_OPEN, True, False)
        assert captive == pytest.approx(full * 0.3)

    def test_closed_revenue_unconditional(self):
        model = InvestmentModel(closed_service_revenue=35.0)
        for vf in (True, False):
            for uc in (True, False):
                assert model.direct_revenue(
                    DeploymentChoice.DEPLOY_CLOSED, vf, uc) == 35.0

    def test_churn_only_with_user_choice(self):
        model = InvestmentModel()
        with_choice = model.payoff(DeploymentChoice.NO_DEPLOY,
                                   DeploymentChoice.DEPLOY_OPEN, True, True)
        without_choice = model.payoff(DeploymentChoice.NO_DEPLOY,
                                      DeploymentChoice.DEPLOY_OPEN, True, False)
        assert with_choice < 0
        assert without_choice == 0.0

    def test_deployment_cost_charged_for_deploys_only(self):
        model = InvestmentModel(deployment_cost=100.0)
        assert model.payoff(DeploymentChoice.NO_DEPLOY,
                            DeploymentChoice.NO_DEPLOY, True, False) == 0.0
        assert model.payoff(DeploymentChoice.DEPLOY_OPEN,
                            DeploymentChoice.NO_DEPLOY, True, False) < (
            model.direct_revenue(DeploymentChoice.DEPLOY_OPEN, True, False)
            * model.horizon)

    def test_validation(self):
        with pytest.raises(MarketError):
            InvestmentModel(captive_fraction=2.0)
        with pytest.raises(MarketError):
            InvestmentModel(horizon=0)


class TestEquilibria:
    def test_both_factors_yield_unique_open_equilibrium(self):
        model = InvestmentModel()
        stable = model.symmetric_equilibria(True, True)
        assert stable == [DeploymentChoice.DEPLOY_OPEN]

    def test_closed_stable_without_user_choice(self):
        model = InvestmentModel()
        assert (model.equilibrium_outcome(True, False)
                is DeploymentChoice.DEPLOY_CLOSED)

    def test_all_closed_destabilized_by_open_deviation_under_choice(self):
        """Fear: with user choice and value flow, someone defects to open."""
        model = InvestmentModel()
        closed_payoff = model.payoff(DeploymentChoice.DEPLOY_CLOSED,
                                     DeploymentChoice.DEPLOY_CLOSED, True, True)
        open_deviation = model.payoff(DeploymentChoice.DEPLOY_OPEN,
                                      DeploymentChoice.DEPLOY_CLOSED, True, True)
        assert open_deviation > closed_payoff

    def test_factorial_shape(self):
        cells = {(c.value_flow, c.user_choice): c.outcome
                 for c in deployment_game()}
        assert cells[(True, True)] is DeploymentChoice.DEPLOY_OPEN
        for key in [(False, False), (False, True), (True, False)]:
            assert cells[key] is DeploymentChoice.DEPLOY_CLOSED

    def test_ablation_no_closed_option(self):
        cells = {(c.value_flow, c.user_choice): c.outcome
                 for c in deployment_game(allow_closed=False)}
        assert cells[(True, True)] is DeploymentChoice.DEPLOY_OPEN
        assert cells[(False, False)] is DeploymentChoice.NO_DEPLOY
        assert cells[(True, False)] is DeploymentChoice.NO_DEPLOY

    def test_describe(self):
        cell = deployment_game()[0]
        assert "no-value-flow" in cell.describe()
