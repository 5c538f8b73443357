"""E03 — Residential broadband access and open access (§V-A-3).

Paper claims:

* the collapse from ~5000 dialup ISPs to a telco/cable duopoly brings
  "higher prices and restrictions";
* open access imposed at the *natural* modularity boundary (facilities vs
  ISP service) restores service-level competition — municipal fiber "can
  be a platform for competitors";
* "most of today's open access proposals fail" because they are "not
  modularized along tussle space boundaries" (the wrong-boundary regime);
* "but they probably will not work to the advantage of those that invest
  in the fiber."

Workload: the two-layer facilities market of
:mod:`tussle.econ.accesstech`, swept over market structures and regimes.
Each cell runs on :class:`~tussle.scale.vmarket.VectorMarket`, which the
``market`` parity pair holds to the scalar
:class:`~tussle.econ.market.Market` bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..econ import herfindahl_index
from ..econ.accesstech import AccessRegime, Facility, access_market_spec
from ..errors import ExperimentError
from ..scale.vmarket import VectorMarket
from .common import ExperimentResult, Table

__all__ = ["run_e03", "scenario_facilities"]


def scenario_facilities(kind: str) -> List[Facility]:
    if kind == "dialup-era":
        # Many facility owners (the phone network was open to any ISP).
        return [Facility(f"pop{i}", wholesale_fee=6.0) for i in range(5)]
    if kind == "duopoly":
        return [
            Facility("telco", wholesale_fee=8.0),
            Facility("cable", wholesale_fee=8.0),
        ]
    if kind == "duopoly+muni-fiber":
        return [
            Facility("telco", wholesale_fee=8.0),
            Facility("cable", wholesale_fee=8.0),
            Facility("muni-fiber", wholesale_fee=5.0, neutral=True),
        ]
    raise ExperimentError(f"unknown scenario {kind!r}")


def run_e03(n_consumers: int = 200, rounds: int = 30, seed: int = 3) -> ExperimentResult:
    table = Table(
        "E03: broadband market structure x open-access regime",
        ["scenario", "regime", "n_retailers", "hhi",
         "final_price", "consumer_surplus"],
    )
    cells: List[Tuple[str, AccessRegime]] = [
        ("dialup-era", AccessRegime.OPEN_NATURAL_BOUNDARY),
        ("duopoly", AccessRegime.CLOSED),
        ("duopoly", AccessRegime.OPEN_WRONG_BOUNDARY),
        ("duopoly", AccessRegime.OPEN_NATURAL_BOUNDARY),
        ("duopoly+muni-fiber", AccessRegime.CLOSED),
        ("duopoly+muni-fiber", AccessRegime.OPEN_NATURAL_BOUNDARY),
    ]
    rows: Dict[Tuple[str, AccessRegime], Dict[str, float]] = {}
    for scenario, regime in cells:
        market = VectorMarket(**access_market_spec(
            scenario_facilities(scenario), regime,
            n_consumers=n_consumers, seed=seed,
        ))
        market.run(rounds)
        shares = [share for share in market.shares().values() if share > 0]
        row = {
            "n_retailers": len(market.providers),
            "hhi": herfindahl_index(shares) if shares else 1.0,
            "final_price": market.mean_price(),
            "consumer_surplus": market.total_consumer_surplus(),
        }
        rows[(scenario, regime)] = row
        table.add_row(scenario=scenario, regime=regime.value, **row)

    result = ExperimentResult(
        experiment_id="E03",
        title="Residential broadband and open access",
        paper_claim=("Duopoly control of the wires raises prices; open access "
                     "at the facilities/service boundary restores competition; "
                     "open access at the wrong boundary does not."),
        tables=[table],
    )

    duopoly_closed = rows[("duopoly", AccessRegime.CLOSED)]
    duopoly_wrong = rows[("duopoly", AccessRegime.OPEN_WRONG_BOUNDARY)]
    duopoly_natural = rows[("duopoly", AccessRegime.OPEN_NATURAL_BOUNDARY)]
    dialup = rows[("dialup-era", AccessRegime.OPEN_NATURAL_BOUNDARY)]
    muni = rows[("duopoly+muni-fiber", AccessRegime.OPEN_NATURAL_BOUNDARY)]

    result.add_check(
        "duopoly closure raises prices above the dialup-era level",
        duopoly_closed["final_price"] > dialup["final_price"],
        detail=(f"dialup {dialup['final_price']:.1f} vs closed duopoly "
                f"{duopoly_closed['final_price']:.1f}"),
    )
    result.add_check(
        "open access at the natural boundary pulls duopoly prices down",
        duopoly_natural["final_price"] < duopoly_closed["final_price"],
        detail=(f"{duopoly_closed['final_price']:.1f} -> "
                f"{duopoly_natural['final_price']:.1f}"),
    )
    result.add_check(
        "the wrong-boundary regime helps far less than the natural one",
        (duopoly_closed["final_price"] - duopoly_wrong["final_price"])
        < (duopoly_closed["final_price"] - duopoly_natural["final_price"]),
        detail=(f"price cut wrong-boundary "
                f"{duopoly_closed['final_price'] - duopoly_wrong['final_price']:.1f} "
                f"vs natural "
                f"{duopoly_closed['final_price'] - duopoly_natural['final_price']:.1f}"),
    )
    result.add_check(
        "municipal fiber + open access further improves consumer surplus",
        muni["consumer_surplus"] >= duopoly_natural["consumer_surplus"],
        detail=(f"surplus duopoly-open {duopoly_natural['consumer_surplus']:.0f} "
                f"vs +muni {muni['consumer_surplus']:.0f}"),
    )
    result.add_check(
        "concentration (HHI) falls when the natural boundary is opened",
        duopoly_natural["hhi"] < duopoly_closed["hhi"],
        detail=f"HHI {duopoly_closed['hhi']:.3f} -> {duopoly_natural['hhi']:.3f}",
    )
    return result
