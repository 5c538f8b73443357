"""Property-based hardening of the bargaining core (ISSUE 10 satellite).

The Nash bargaining solution has textbook axioms; this suite holds
:func:`tussle.peering.nash_bargain` and :func:`tussle.peering.evaluate_pair`
to them with Hypothesis rather than hand-picked examples:

* the solution is Pareto-optimal (exhausts the utility frontier);
* symmetric under swapping the players;
* invariant under positive affine rescaling of either utility scale;
* never hands a party less than its disagreement payoff;
* and degenerates correctly (zero surplus -> no deal, symmetric
  problems -> equal split).
"""

import math
from dataclasses import fields

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from tussle.errors import PeeringError
from tussle.peering import (
    AgreementKind,
    PairTraffic,
    PeeringEconomics,
    evaluate_pair,
    nash_bargain,
)

totals = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
payoffs = st.floats(min_value=-1e5, max_value=1e5,
                    allow_nan=False, allow_infinity=False)
weights = st.floats(min_value=0.01, max_value=100.0,
                    allow_nan=False, allow_infinity=False)
scales = st.floats(min_value=0.1, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
shifts = st.floats(min_value=-1e4, max_value=1e4,
                   allow_nan=False, allow_infinity=False)
volumes = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False)


def _scale(total, d_a, d_b, w_a, w_b):
    """A magnitude yardstick for float tolerances in one problem."""
    return max(abs(total), abs(d_a), abs(d_b), 1.0) * max(w_a, w_b, 1.0)


class TestNashBargain:
    @given(totals, payoffs, payoffs, weights, weights)
    def test_never_below_disagreement(self, total, d_a, d_b, w_a, w_b):
        outcome = nash_bargain(total, (d_a, d_b), (w_a, w_b))
        tol = 1e-9 * _scale(total, d_a, d_b, w_a, w_b)
        assert outcome.utilities[0] >= d_a - tol
        assert outcome.utilities[1] >= d_b - tol

    @given(totals, payoffs, payoffs, weights, weights)
    def test_pareto_optimal_when_agreed(self, total, d_a, d_b, w_a, w_b):
        """An agreement allocates the whole frontier: w . u == total."""
        outcome = nash_bargain(total, (d_a, d_b), (w_a, w_b))
        if not outcome.agreed:
            return
        allocated = w_a * outcome.utilities[0] + w_b * outcome.utilities[1]
        assert math.isclose(allocated, total, rel_tol=1e-9,
                            abs_tol=1e-9 * _scale(total, d_a, d_b, w_a, w_b))

    @given(totals, payoffs, payoffs, weights, weights)
    def test_symmetric_under_player_swap(self, total, d_a, d_b, w_a, w_b):
        one = nash_bargain(total, (d_a, d_b), (w_a, w_b))
        two = nash_bargain(total, (d_b, d_a), (w_b, w_a))
        assert one.agreed == two.agreed
        assert one.utilities == (two.utilities[1], two.utilities[0])

    @given(totals, payoffs, payoffs, weights, weights,
           scales, shifts, scales, shifts)
    def test_invariant_under_affine_rescaling(self, total, d_a, d_b,
                                              w_a, w_b, alpha_a, beta_a,
                                              alpha_b, beta_b):
        """Rescaling a player's utility scale rescales the solution.

        Measuring player i's utility in new units ``v = alpha*u + beta``
        turns the frontier ``w . u = total`` into ``(w/alpha) . v =
        total + sum(w*beta/alpha)`` and moves the disagreement point to
        ``alpha*d + beta``; the Nash solution must map through the same
        transformation (the classic invariance axiom).
        """
        base = nash_bargain(total, (d_a, d_b), (w_a, w_b))
        # Keep clear of the agree/no-agree boundary, where a float-level
        # perturbation of the transformed inputs can flip the branch.
        assume(abs(base.surplus) > 1e-6 * _scale(total, d_a, d_b, w_a, w_b))
        mapped = nash_bargain(
            total + w_a * beta_a / alpha_a + w_b * beta_b / alpha_b,
            (alpha_a * d_a + beta_a, alpha_b * d_b + beta_b),
            (w_a / alpha_a, w_b / alpha_b),
        )
        assert mapped.agreed == base.agreed
        expect_a = alpha_a * base.utilities[0] + beta_a
        expect_b = alpha_b * base.utilities[1] + beta_b
        tol = 1e-6 * _scale(total, d_a, d_b, w_a, w_b) \
            * max(alpha_a, alpha_b, abs(beta_a), abs(beta_b), 1.0)
        assert math.isclose(mapped.utilities[0], expect_a, abs_tol=tol)
        assert math.isclose(mapped.utilities[1], expect_b, abs_tol=tol)

    @given(payoffs, payoffs, weights, weights)
    def test_zero_surplus_means_no_deal(self, d_a, d_b, w_a, w_b):
        total = w_a * d_a + w_b * d_b
        outcome = nash_bargain(total, (d_a, d_b), (w_a, w_b))
        assert not outcome.agreed
        assert outcome.utilities == (d_a, d_b)
        assert outcome.gains == (0.0, 0.0)

    @given(totals, payoffs)
    # A positive surplus that rounds away: d + S/2 == d, so no deal.
    @example(total=-5e-324, d=-5e-324)
    def test_symmetric_problem_splits_equally(self, total, d):
        outcome = nash_bargain(total, (d, d))
        assert outcome.utilities[0] == outcome.utilities[1]
        if outcome.agreed:
            assert outcome.utilities[0] > d

    def test_rejects_bad_inputs(self):
        with pytest.raises(PeeringError):
            nash_bargain(1.0, (0.0, 0.0), (0.0, 1.0))
        with pytest.raises(PeeringError):
            nash_bargain(math.inf, (0.0, 0.0))
        with pytest.raises(PeeringError):
            nash_bargain(1.0, (math.nan, 0.0))


class TestEvaluatePair:
    @given(volumes, volumes)
    def test_agreement_iff_positive_surplus(self, to_b, to_a):
        econ = PeeringEconomics()
        traffic = PairTraffic(a=1, b=2, to_b=to_b, to_a=to_a)
        agreement = evaluate_pair(traffic, econ)
        surplus = econ.transit_price * (to_b + to_a) - 2 * econ.peering_cost
        assert (agreement is not None) == (surplus > 0)

    @given(volumes, volumes)
    def test_surplus_split_equally_between_parties(self, to_b, to_a):
        """The Nash split: both sides gain exactly half the surplus."""
        econ = PeeringEconomics()
        agreement = evaluate_pair(PairTraffic(a=1, b=2, to_b=to_b,
                                              to_a=to_a), econ)
        if agreement is None:
            return
        gain_a = agreement.net_gain(1, econ)
        gain_b = agreement.net_gain(2, econ)
        if agreement.kind is AgreementKind.PAID_PEERING:
            assert math.isclose(gain_a, gain_b, rel_tol=1e-9, abs_tol=1e-6)
            assert math.isclose(gain_a, agreement.surplus / 2,
                                rel_tol=1e-9, abs_tol=1e-6)
        # Settlement-free waives the equalising transfer, but the joint
        # gain is the surplus either way.
        assert math.isclose(gain_a + gain_b, agreement.surplus,
                            rel_tol=1e-9, abs_tol=1e-6)

    @given(volumes, volumes)
    def test_heavy_sender_pays(self, to_b, to_a):
        econ = PeeringEconomics()
        agreement = evaluate_pair(PairTraffic(a=1, b=2, to_b=to_b,
                                              to_a=to_a), econ)
        if agreement is None or agreement.kind is not AgreementKind.PAID_PEERING:
            return
        if agreement.savings_a > agreement.savings_b:
            assert agreement.transfer > 0  # a pays b
        else:
            assert agreement.transfer < 0  # b pays a

    @given(volumes, volumes)
    def test_ratio_cap_draws_the_settlement_free_line(self, to_b, to_a):
        econ = PeeringEconomics()
        agreement = evaluate_pair(PairTraffic(a=1, b=2, to_b=to_b,
                                              to_a=to_a), econ)
        if agreement is None:
            return
        hi = max(agreement.savings_a, agreement.savings_b)
        lo = min(agreement.savings_a, agreement.savings_b)
        balanced = hi <= econ.ratio_cap * lo
        assert (agreement.kind is AgreementKind.SETTLEMENT_FREE) == balanced
        if balanced:
            assert agreement.transfer == 0.0

    @given(volumes)
    def test_tier1_side_saves_nothing_and_collects(self, to_b):
        """A side with no providers gains nothing from peering itself,
        so any agreement that still forms has the other side paying."""
        econ = PeeringEconomics()
        agreement = evaluate_pair(PairTraffic(a=1, b=2, to_b=to_b, to_a=1e5),
                                  econ, a_pays_transit=False)
        if agreement is None:
            return
        assert agreement.savings_a == 0.0
        assert agreement.kind is AgreementKind.PAID_PEERING
        assert agreement.transfer < 0  # b pays a for the access

    def test_negative_volume_rejected(self):
        with pytest.raises(PeeringError):
            evaluate_pair(PairTraffic(a=1, b=2, to_b=-1.0, to_a=0.0),
                          PeeringEconomics())

    def test_economics_knobs_validated(self):
        with pytest.raises(PeeringError):
            PeeringEconomics(transit_price=0.0)
        with pytest.raises(PeeringError):
            PeeringEconomics(peering_cost=-1.0)
        with pytest.raises(PeeringError):
            PeeringEconomics(ratio_cap=0.5)
        with pytest.raises(PeeringError):
            PeeringEconomics(discount=1.0)

    @pytest.mark.parametrize("knob", [f.name for f in fields(PeeringEconomics)])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knobs_rejected(self, knob, value):
        with pytest.raises(PeeringError, match=knob):
            PeeringEconomics(**{knob: value})
