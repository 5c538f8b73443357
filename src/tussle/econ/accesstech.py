"""Residential broadband access: facilities, ISPs, and open-access regimes.

Section V-A-3: "A pessimistic outcome five years in the future is that the
average residential customer will have two choices — his telephone company
and his cable company — because they control the wires." The section
proposes municipal fiber as a neutral platform and argues open access
works only when imposed "at the natural modularity boundary" between
facilities provision and ISP services.

This module models a two-layer market:

* **facility layer** — owners of physical wires (telco copper, cable,
  municipal fiber); each facility can host one or many service providers
  depending on the open-access regime;
* **service layer** — ISPs that retail Internet service over a facility,
  paying the facility a wholesale fee.

:func:`access_market_spec` turns a facility configuration into market
constructor kwargs, so E03 can sweep facility count x regime and read
prices/welfare from the standard market machinery.  The population is a
:class:`~tussle.scale.arrays.ConsumerBatch`; the scalar
:class:`~tussle.econ.market.Market` runs the same spec with
``batch.to_consumers()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence, Tuple

from ..errors import MarketError
from ..scale.arrays import ConsumerBatch, random_doubles
from .agents import Provider
from .demand import UniformWtp
from .pricing import MonopolyPricing, PricingStrategy, UndercutPricing

__all__ = [
    "AccessRegime",
    "Facility",
    "build_service_providers",
    "access_market_spec",
]


class AccessRegime(Enum):
    """How a facility admits service providers.

    CLOSED:
        Vertical integration — the facility owner is the only ISP on its
        wires (the paper's pessimistic duopoly outcome).
    OPEN_NATURAL_BOUNDARY:
        Open access at the facilities/service boundary — any ISP may
        retail over the wires for a wholesale fee (the paper's preferred
        design; municipal fiber "can be a platform for competitors").
    OPEN_WRONG_BOUNDARY:
        Open access mandated at a boundary that does not match the tussle
        space — ISPs must also take the owner's bundled mail/web services,
        so entrants inherit the owner's cost structure and only a token
        number enter. (The paper: "Most of today's 'open access' proposals
        fail... because they are not modularized along tussle space
        boundaries.")
    """

    CLOSED = "closed"
    OPEN_NATURAL_BOUNDARY = "open-natural"
    OPEN_WRONG_BOUNDARY = "open-wrong-boundary"


@dataclass
class Facility:
    """A physical access facility (the wires).

    Attributes
    ----------
    wholesale_fee:
        Per-subscriber fee charged to ISPs riding the facility under an
        open regime (for CLOSED it is an internal transfer).
    capital_cost:
        Sunk construction cost (reported, not charged per round).
    neutral:
        True for municipally-owned facilities that do not retail service
        themselves.
    """

    name: str
    wholesale_fee: float = 8.0
    capital_cost: float = 1000.0
    neutral: bool = False


def build_service_providers(
    facilities: Sequence[Facility],
    regime: AccessRegime,
    isps_per_open_facility: int = 4,
    retail_unit_cost: float = 3.0,
    initial_price: float = 40.0,
) -> Tuple[List[Provider], Dict[str, PricingStrategy]]:
    """Instantiate the service-layer providers implied by a regime.

    Returns the providers plus per-provider pricing strategies: sole
    retailers on closed facilities price like monopolists (with each other
    as the only competition), while crowded open facilities produce
    undercutters.
    """
    if not facilities:
        raise MarketError("need at least one facility")
    providers: List[Provider] = []
    strategies: Dict[str, PricingStrategy] = {}

    for facility in facilities:
        if regime is AccessRegime.CLOSED:
            # Vertical integration: the owner is the only retailer on its
            # wires (a neutral facility still needs one anchor tenant).
            count = 1
        elif regime is AccessRegime.OPEN_NATURAL_BOUNDARY:
            count = isps_per_open_facility
        else:  # OPEN_WRONG_BOUNDARY: bundling deters entry; one token entrant.
            count = 2
        for i in range(count):
            name = f"{facility.name}-isp{i}"
            unit_cost = retail_unit_cost + facility.wholesale_fee
            if regime is AccessRegime.OPEN_WRONG_BOUNDARY and i > 0:
                # Entrants must carry the owner's bundled services too,
                # inheriting a fatter cost structure.
                unit_cost += facility.wholesale_fee * 0.75
            provider = Provider(name=name, price=initial_price, unit_cost=unit_cost)
            providers.append(provider)
            if regime is AccessRegime.CLOSED:
                # Facility owners facing no retail rivals on their wires
                # price like monopolists.
                strategies[name] = MonopolyPricing(price_cap=90.0)
            elif regime is AccessRegime.OPEN_WRONG_BOUNDARY and i == 0:
                # The owner knows the bundled entrant cannot undercut far;
                # it keeps monopoly-style pricing, disciplined only when
                # customers actually defect to the entrant.
                strategies[name] = MonopolyPricing(price_cap=90.0)
            else:
                strategies[name] = UndercutPricing()
    return providers, strategies


def access_market_spec(
    facilities: Sequence[Facility],
    regime: AccessRegime,
    n_consumers: int = 200,
    isps_per_open_facility: int = 4,
    switching_cost: float = 2.0,
    seed: int = 0,
) -> dict:
    """Constructor kwargs for one E03 cell (fresh objects per call).

    The population is basic-segment, wtp ~ U(25, 95) drawn from
    ``random.Random(seed)`` in consumer order, and picks freely in round
    0.  :class:`~tussle.scale.vmarket.VectorMarket` takes these kwargs
    as they are; the scalar :class:`~tussle.econ.market.Market` takes
    ``consumers=batch.to_consumers()`` in place of ``batch``.
    """
    providers, strategies = build_service_providers(
        facilities, regime, isps_per_open_facility=isps_per_open_facility
    )
    wtp = UniformWtp(25.0, 95.0).from_unit(
        random_doubles(random.Random(seed), n_consumers))
    return dict(providers=providers,
                batch=ConsumerBatch.basic(wtp, switching_cost,
                                          name_prefix="home"),
                strategies=strategies, preference_noise=2.0, seed=seed)
