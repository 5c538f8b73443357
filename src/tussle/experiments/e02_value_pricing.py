"""E02 — Value pricing and the tunnelling counter-move (§V-A-2).

Paper claim: providers tier prices to separate customers by willingness to
pay ("no servers on the residential rate"); customers respond by switching
to another provider "if there is one, or by tunneling to disguise the port
numbers being used." Mechanisms that mask usage (tunnels) "shift the
balance of power from the producer to the consumer," and the outcome
"depends strongly on whether one perceives competition as currently
healthy."

Workload: a market where all providers value-price. We sweep the cells
(monopoly vs competitive) x (consumers can tunnel vs cannot) and report
tier revenue extraction, tunnelling uptake, and consumer surplus. The
cells, line-up and population are L02's (:mod:`tussle.scale.large`) at
a few hundred consumers; each cell runs on
:class:`~tussle.scale.vmarket.VectorMarket`, which the ``market`` parity
pair holds to the scalar :class:`~tussle.econ.market.Market` bit for
bit.
"""

from __future__ import annotations

from ..scale.large import value_pricing_claims, value_pricing_outcomes
from .common import ExperimentResult, Table

__all__ = ["run_e02"]

#: E02's wording of the value-pricing claims, in ``value_pricing_claims``
#: order, each with the words its detail ends with.
_CLAIMS = [
    ("tunnelling raises consumer surplus under monopoly tiering",
     " once tunnels exist"),
    ("tunnelling cuts the monopolist's extraction", ""),
    ("competition alone already disciplines extraction", ""),
    ("tunnel detection (escalation) restores extraction", ""),
    ("tunnels are actually used under monopoly tiering", ""),
]


def run_e02(n_consumers: int = 150, rounds: int = 25, seed: int = 11) -> ExperimentResult:
    table = Table(
        "E02: value pricing under competition x tunnelling",
        ["market", "tunnels", "detects", "tunnel_uptake",
         "provider_profit", "consumer_surplus"],
    )
    measurements = value_pricing_outcomes(n_consumers, rounds, seed)
    for (label, can_tunnel, detects), row in measurements.items():
        table.add_row(market=label, tunnels=can_tunnel, detects=detects, **row)

    result = ExperimentResult(
        experiment_id="E02",
        title="Value pricing vs the tunnelling counter-move",
        paper_claim=("Tiering extracts surplus from server-running customers; "
                     "tunnels shift power back to the consumer; competition "
                     "disciplines the tier premium; detection (the provider's "
                     "counter-counter-move) restores extraction."),
        tables=[table],
    )

    for (claim, ending), (holds, detail) in zip(
            _CLAIMS, value_pricing_claims(measurements)):
        result.add_check(claim, holds, detail=detail + ending)
    return result
