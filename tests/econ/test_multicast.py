"""Tests for the multicast coordination game (the §VII exercise)."""

from dataclasses import replace

import pytest

from tussle.econ.investment import DeploymentChoice, deployment_game
from tussle.errors import MarketError
from tussle.experiments.x01_multicast import multicast_model


class TestPayoffs:
    def test_solo_open_deployment_loses_money(self):
        model = multicast_model()
        payoff = model.payoff(DeploymentChoice.DEPLOY_OPEN,
                              DeploymentChoice.NO_DEPLOY, True, True)
        assert payoff < 0

    def test_universal_open_deployment_profits(self):
        model = multicast_model()
        payoff = model.payoff(DeploymentChoice.DEPLOY_OPEN,
                              DeploymentChoice.DEPLOY_OPEN, True, True)
        assert payoff > 0

    def test_network_effect_gates_open_revenue(self):
        model = multicast_model()
        alone = model.payoff(DeploymentChoice.DEPLOY_OPEN,
                             DeploymentChoice.NO_DEPLOY, True, False)
        together = model.payoff(DeploymentChoice.DEPLOY_OPEN,
                                DeploymentChoice.DEPLOY_OPEN, True, False)
        assert together > alone

    def test_no_value_flow_means_no_open_revenue(self):
        model = multicast_model()
        assert model.payoff(DeploymentChoice.DEPLOY_OPEN,
                            DeploymentChoice.DEPLOY_OPEN, False, False) \
            == pytest.approx(-model.deployment_cost)


class TestEquilibria:
    def test_best_cell_is_a_stag_hunt(self):
        """Open is stable AND closed/no-deploy is stable: coordination trap."""
        model = multicast_model()
        stable = model.symmetric_equilibria(True, True)
        assert DeploymentChoice.DEPLOY_OPEN in stable
        assert len(stable) > 1

    def test_factorial_traps(self):
        cells = {(c.value_flow, c.user_choice): c
                 for c in deployment_game(multicast_model())}
        assert cells[(True, True)].coordination_trap
        # Without user choice there is no churn pressure toward open at
        # all; closed deployment is simply the unique equilibrium.
        assert not cells[(True, False)].coordination_trap
        assert cells[(True, False)].equilibria == [DeploymentChoice.DEPLOY_CLOSED]

    def test_contrast_with_qos(self):
        """QoS's best cell resolves to open; multicast's stays ambiguous."""
        from tussle.econ.investment import InvestmentModel

        qos_stable = InvestmentModel().symmetric_equilibria(True, True)
        multicast_stable = multicast_model().symmetric_equilibria(True, True)
        assert qos_stable == [DeploymentChoice.DEPLOY_OPEN]
        assert len(multicast_stable) > len(qos_stable)

    def test_no_closed_option_still_trapped(self):
        cells = {(c.value_flow, c.user_choice): c
                 for c in deployment_game(multicast_model(), allow_closed=False)}
        best = cells[(True, True)]
        assert DeploymentChoice.DEPLOY_OPEN in best.equilibria
        assert DeploymentChoice.NO_DEPLOY in best.equilibria
        assert best.coordination_trap

    def test_describe(self):
        cell = deployment_game(multicast_model())[0]
        assert "no-value-flow" in cell.describe()


class TestValidation:
    """The multicast game rejects what the QoS game rejects."""

    def test_captive_fraction_outside_unit_interval(self):
        with pytest.raises(MarketError):
            replace(multicast_model(), captive_fraction=2.0)

    def test_non_positive_horizon(self):
        with pytest.raises(MarketError):
            replace(multicast_model(), horizon=0)
