"""Nash bargaining over the peering surplus.

§V-A-4 of the paper frames interconnection as a tussle that is
*negotiated*, not computed: two providers each control something the
other wants (reach into their customer cone), and the agreement they
strike divides the joint gain from connecting directly instead of
buying transit.  This module is that negotiation, made explicit:

* :func:`nash_bargain` — the textbook Nash bargaining solution on a
  linear utility frontier, in closed form.  The disagreement point is
  what each side earns *without* a deal — i.e. paying transit along the
  currently converged valley-free routes — which is exactly how the
  routing tussle feeds back into the money tussle.
* :func:`evaluate_pair` — turns directional exchanged traffic
  (:class:`~tussle.peering.value.PairTraffic`) into a concrete
  agreement: settlement-free peering when traffic is balanced, paid
  peering with an explicit side payment when one side sends far more
  than it receives (the content-pays-eyeballs outcome), or no deal when
  the joint surplus cannot cover two sets of ports.
* :func:`depeering_stage_game` / :func:`peering_sustainable` — the
  enforcement story.  Honoring an agreement is a repeated game: the
  one-shot game tempts each side to defect (squeeze the counterparty
  for nearly the whole surplus), and only the shadow of the future —
  :func:`tussle.gametheory.repeated.cooperation_sustainable` — keeps
  the agreement alive.  A depeering war is both sides playing defect.

Everything is closed-form or enumerated; nothing here draws random
numbers, so a bargain is a pure function of the traffic it is fed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..errors import PeeringError
from ..gametheory.games import NormalFormGame
from ..gametheory.repeated import (
    cooperation_sustainable,
    prisoners_dilemma,
)
from .value import PairTraffic, PeeringEconomics

__all__ = ["BargainOutcome", "nash_bargain", "AgreementKind",
           "PeeringAgreement", "evaluate_pair", "depeering_stage_game",
           "peering_sustainable"]

# Defection skims this share of the surplus in the one-shot game; the
# honoring side is left holding stranded ports (a small negative).
_TEMPTATION_SHARE = 0.8
_SUCKER_SHARE = -0.1


@dataclass(frozen=True)
class BargainOutcome:
    """The Nash bargaining solution for one two-party negotiation."""

    agreed: bool
    utilities: Tuple[float, float]
    disagreement: Tuple[float, float]
    surplus: float

    @property
    def gains(self) -> Tuple[float, float]:
        """Each party's gain over its disagreement payoff."""
        return (self.utilities[0] - self.disagreement[0],
                self.utilities[1] - self.disagreement[1])


def nash_bargain(total: float, disagreement: Tuple[float, float],
                 weights: Tuple[float, float] = (1.0, 1.0),
                 ) -> BargainOutcome:
    """Nash bargaining solution on the linear frontier ``w·u = total``.

    Maximizes the Nash product ``(u_a - d_a) * (u_b - d_b)`` over the
    feasible frontier ``w_a*u_a + w_b*u_b = total`` with ``u_i >= d_i``.
    On a linear frontier the maximizer is closed-form: each party gets
    its disagreement payoff plus half the (weight-normalised) surplus

        ``u_i = d_i + S / (2 * w_i)``  with  ``S = total - w·d``.

    A deal must leave each party strictly better off after rounding.  If
    the surplus ``S`` is non-positive, or so small that ``d_i + S/(2w_i)``
    rounds back to ``d_i`` for either party, the outcome is
    ``agreed=False`` with both parties at their disagreement payoffs.
    The weights let callers express utility scales; the solution is
    invariant to positive affine rescaling of either party's utility
    (tested property, not prose).
    """
    w_a, w_b = weights
    if w_a <= 0 or w_b <= 0:
        raise PeeringError("bargaining weights must be positive")
    d_a, d_b = float(disagreement[0]), float(disagreement[1])
    if not all(math.isfinite(x) for x in (total, d_a, d_b, w_a, w_b)):
        raise PeeringError("bargaining inputs must be finite")
    surplus = float(total) - (w_a * d_a + w_b * d_b)
    utilities = (d_a + surplus / (2.0 * w_a), d_b + surplus / (2.0 * w_b))
    if not (utilities[0] > d_a and utilities[1] > d_b):
        return BargainOutcome(agreed=False, utilities=(d_a, d_b),
                              disagreement=(d_a, d_b), surplus=surplus)
    return BargainOutcome(agreed=True, utilities=utilities,
                          disagreement=(d_a, d_b), surplus=surplus)


class AgreementKind(Enum):
    """What two ASes agreed to do about each other's traffic."""

    SETTLEMENT_FREE = "settlement_free"
    PAID_PEERING = "paid_peering"


@dataclass(frozen=True)
class PeeringAgreement:
    """A struck bargain between ``a`` and ``b`` (stored with a < b).

    ``transfer`` is the per-round side payment: positive means ``a``
    pays ``b``, negative means ``b`` pays ``a``, zero for
    settlement-free.  ``surplus`` is the joint gain over transit that
    the agreement divides; ``savings_a``/``savings_b`` are each side's
    gross transit savings the split was computed from.
    """

    a: int
    b: int
    kind: AgreementKind
    transfer: float
    surplus: float
    savings_a: float
    savings_b: float

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.a, self.b)

    def net_gain(self, asn: int, econ: PeeringEconomics) -> float:
        """One side's per-round gain from honoring the agreement."""
        if asn == self.a:
            return self.savings_a - econ.peering_cost - self.transfer
        if asn == self.b:
            return self.savings_b - econ.peering_cost + self.transfer
        raise PeeringError(f"AS {asn} is not a party to this agreement")

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "kind": self.kind.value,
            "transfer": round(self.transfer, 9),
            "surplus": round(self.surplus, 9),
            "savings_a": round(self.savings_a, 9),
            "savings_b": round(self.savings_b, 9),
        }


def evaluate_pair(traffic: PairTraffic, econ: PeeringEconomics,
                  a_pays_transit: bool = True,
                  b_pays_transit: bool = True,
                  ) -> Optional[PeeringAgreement]:
    """Bargain one candidate (or existing) peering into an agreement.

    The disagreement point is the transit status quo: each side keeps
    paying ``transit_price`` per unit it *sends* toward the other's
    customer cone up its provider link (zero for a side with no
    providers — a tier-1 saves nothing by peering).  Peering moves that
    traffic onto a settlement-free edge at a flat ``peering_cost`` per
    side, so the joint surplus is

        ``S = savings_a + savings_b - 2 * peering_cost``.

    :func:`nash_bargain` splits ``S`` equally; the equal split is
    implemented as a side payment ``transfer = (savings_a -
    savings_b) / 2`` from the side that saves more (the heavy *sender*)
    to the side that saves less — which is precisely the paid-peering
    tussle: content-heavy networks end up paying eyeball networks even
    though both gain.  If the savings are within ``econ.ratio_cap`` of
    each other the parties waive the imbalance and peer settlement-free
    (the traffic-ratio clause of real peering policies).  Returns
    ``None`` when the surplus is non-positive: transit stays.
    """
    if traffic.to_b < 0 or traffic.to_a < 0:
        raise PeeringError("exchanged volumes cannot be negative")
    savings_a = econ.transit_price * traffic.to_b if a_pays_transit else 0.0
    savings_b = econ.transit_price * traffic.to_a if b_pays_transit else 0.0
    total = savings_a + savings_b - 2.0 * econ.peering_cost
    outcome = nash_bargain(total, disagreement=(0.0, 0.0))
    if not outcome.agreed:
        return None
    # Equal split of the surplus, realised as a side payment on top of
    # each side's own savings: u_i = savings_i - peering_cost -/+ transfer.
    transfer = (savings_a - savings_b) / 2.0
    hi, lo = max(savings_a, savings_b), min(savings_a, savings_b)
    balanced = hi <= econ.ratio_cap * lo
    if balanced:
        # Within ratio: waive settlement, each side banks its own savings.
        kind, transfer = AgreementKind.SETTLEMENT_FREE, 0.0
    else:
        kind = AgreementKind.PAID_PEERING
    return PeeringAgreement(
        a=traffic.a, b=traffic.b, kind=kind, transfer=transfer,
        surplus=outcome.surplus, savings_a=savings_a, savings_b=savings_b,
    )


def depeering_stage_game(surplus: float) -> NormalFormGame:
    """The one-shot honor/defect game behind a peering agreement.

    Each round both parties choose to *honor* the agreement (cooperate)
    or *defect* — throttle the interconnect and demand the whole
    surplus.  Honoring together yields the Nash split ``S/2`` each; a
    lone defector skims ``0.8 * S`` while the honoring side is left
    with stranded ports (``-0.1 * S``); mutual defection is the
    depeering war, which burns the whole surplus (0 each).  The payoffs
    satisfy T > R > P > S, so the one-shot game is a prisoner's
    dilemma: defection is dominant, and a single bargaining round
    cannot sustain peering — only repetition can.
    """
    if surplus <= 0:
        raise PeeringError("the honor/defect game needs a positive surplus")
    return prisoners_dilemma(
        t=_TEMPTATION_SHARE * surplus,
        r=0.5 * surplus,
        p=0.0,
        s=_SUCKER_SHARE * surplus,
    )


def peering_sustainable(surplus: float, discount: float) -> bool:
    """Folk-theorem check: does the shadow of the future hold the peace?

    True iff grim trigger sustains mutual honoring of an agreement with
    joint surplus ``surplus`` at per-round discount factor ``discount``
    — i.e. the one-shot temptation ``(0.8 - 0.5) * S`` is worth less
    than the discounted stream of Nash splits forfeited by a war.
    """
    if surplus <= 0:
        return False
    return cooperation_sustainable(
        t=_TEMPTATION_SHARE * surplus,
        r=0.5 * surplus,
        p=0.0,
        s=_SUCKER_SHARE * surplus,
        discount=discount,
    )
