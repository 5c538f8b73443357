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
tier revenue extraction, tunnelling uptake, and consumer surplus. Each
cell runs on :class:`~tussle.scale.vmarket.VectorMarket`, which the
``market`` parity pair holds to the scalar
:class:`~tussle.econ.market.Market` bit for bit.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from ..econ import (
    Consumer,
    MonopolyPricing,
    Provider,
    UndercutPricing,
    ValuePricingStrategy,
)
from ..econ.demand import Segment, UniformWtp
from ..scale.vmarket import VectorMarket
from .common import ExperimentResult, Table

__all__ = ["run_e02", "value_pricing_market_spec"]


def value_pricing_market_spec(n_providers: int, can_tunnel: bool,
                              detects_tunnels: bool, n_consumers: int,
                              seed: int) -> dict:
    """Constructor kwargs for one E02 value-pricing cell.

    Fresh objects per call, so the same spec can feed both the scalar
    market and the ``tussle.scale`` vector backend (the parity harness
    relies on this).
    """
    providers = []
    strategies = {}
    for i in range(n_providers):
        name = f"isp{i}"
        providers.append(Provider(
            name=name,
            price=30.0,
            business_price=42.0,
            unit_cost=5.0,
            detects_tunnels=detects_tunnels,
        ))
        base = MonopolyPricing(price_cap=45.0) if n_providers == 1 else UndercutPricing()
        strategies[name] = ValuePricingStrategy(tier_multiple=1.4, base_strategy=base)
    rng = random.Random(seed)
    basic_wtp = UniformWtp(25.0, 60.0)
    business_wtp = UniformWtp(35.0, 70.0)
    consumers: List[Consumer] = []
    for i in range(n_consumers):
        if i % 3 == 0:  # a third of households want to run a server
            consumers.append(Consumer(
                name=f"home{i}",
                wtp=business_wtp.sample(rng),
                segment=Segment.BUSINESS,
                server_value=30.0,
                can_tunnel=can_tunnel,
                tunnel_cost=3.0,
                switching_cost=2.0,
            ))
        else:
            consumers.append(Consumer(
                name=f"home{i}",
                wtp=basic_wtp.sample(rng),
                segment=Segment.BASIC,
                switching_cost=2.0,
            ))
    return dict(providers=providers, consumers=consumers,
                strategies=strategies, seed=seed)


def run_e02(n_consumers: int = 150, rounds: int = 25, seed: int = 11) -> ExperimentResult:
    table = Table(
        "E02: value pricing under competition x tunnelling",
        ["market", "tunnels", "detects", "tunnel_uptake",
         "provider_profit", "consumer_surplus"],
    )
    cells: List[Tuple[str, int, bool, bool]] = [
        ("monopoly", 1, False, False),
        ("monopoly", 1, True, False),
        ("competitive", 4, False, False),
        ("competitive", 4, True, False),
        ("monopoly+dpi", 1, True, True),
    ]
    measurements: Dict[Tuple[str, bool, bool], Dict[str, float]] = {}
    for label, n_providers, can_tunnel, detects in cells:
        spec = value_pricing_market_spec(
            n_providers, can_tunnel, detects, n_consumers, seed)
        business = np.array([c.segment is Segment.BUSINESS
                             for c in spec["consumers"]], dtype=bool)
        market = VectorMarket(**spec)
        market.run(rounds)
        tunnels = market.arrays.tunnelling[business]
        tunnel_uptake = (int(np.count_nonzero(tunnels)) / tunnels.size
                         if tunnels.size else 0.0)
        row = {
            "tunnel_uptake": tunnel_uptake,
            "provider_profit": market.total_provider_profit(),
            "consumer_surplus": market.total_consumer_surplus(),
        }
        measurements[(label, can_tunnel, detects)] = row
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

    mono_plain = measurements[("monopoly", False, False)]
    mono_tunnel = measurements[("monopoly", True, False)]
    comp_plain = measurements[("competitive", False, False)]
    mono_dpi = measurements[("monopoly+dpi", True, True)]

    result.add_check(
        "tunnelling raises consumer surplus under monopoly tiering",
        mono_tunnel["consumer_surplus"] > mono_plain["consumer_surplus"],
        detail=(f"surplus {mono_plain['consumer_surplus']:.0f} -> "
                f"{mono_tunnel['consumer_surplus']:.0f} once tunnels exist"),
    )
    result.add_check(
        "tunnelling cuts the monopolist's extraction",
        mono_tunnel["provider_profit"] < mono_plain["provider_profit"],
        detail=(f"profit {mono_plain['provider_profit']:.0f} -> "
                f"{mono_tunnel['provider_profit']:.0f}"),
    )
    result.add_check(
        "competition alone already disciplines extraction",
        comp_plain["provider_profit"] < mono_plain["provider_profit"]
        and comp_plain["consumer_surplus"] > mono_plain["consumer_surplus"],
        detail=(f"monopoly profit {mono_plain['provider_profit']:.0f} vs "
                f"competitive {comp_plain['provider_profit']:.0f}"),
    )
    result.add_check(
        "tunnel detection (escalation) restores extraction",
        mono_dpi["provider_profit"] > mono_tunnel["provider_profit"]
        and mono_dpi["tunnel_uptake"] < mono_tunnel["tunnel_uptake"] + 1e-9,
        detail=(f"profit {mono_tunnel['provider_profit']:.0f} -> "
                f"{mono_dpi['provider_profit']:.0f} with DPI"),
    )
    result.add_check(
        "tunnels are actually used under monopoly tiering",
        mono_tunnel["tunnel_uptake"] > 0.3,
        detail=f"uptake {mono_tunnel['tunnel_uptake']:.2f}",
    )
    return result
