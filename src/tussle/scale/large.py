"""Large-N scenarios and the at-scale experiments L01/L02.

The ROADMAP north star asks for markets with "millions of users"; the
E01/E02 claim shapes were established at a few hundred consumers.  This
module re-runs those claims on 10^4–10^6-consumer populations through
:class:`~tussle.scale.vmarket.VectorMarket`:

* **L01 (lock-in at scale)** — the E01 addressing-mode sweep (static /
  DHCP / DHCP+DDNS / provider-independent switching costs) with the
  same provider line-up, asserting the same qualitative shape at every
  population tier: switching rises as renumbering gets cheaper, prices
  are highest under static lock-in, surplus improves when switching is
  freed.
* **L02 (value pricing at scale)** — the E02 monopoly/competition x
  tunnelling cells, asserting tunnelling raises consumer surplus and
  cuts monopoly extraction, competition disciplines the tier, and
  detection restores extraction — at every tier.

Scenario builders produce :class:`~tussle.scale.arrays.ConsumerBatch`
columns from the *same* Python ``random.Random(seed)`` draw sequence
the scalar builders use, so a small-N batch market is bit-comparable
against its scalar twin (tests do exactly that) while a 10^6 batch is
just bigger arrays.

Both experiments take a ``tiers`` tuple; defaults stay modest because
the registry's seedcheck double-runs every experiment, and the 10^5 /
10^6 tiers run in the slow/large pytest lanes and via
``tussle sweep --grid``.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from ..econ.agents import Provider
from ..econ.demand import UniformWtp
from ..econ.pricing import (
    MonopolyPricing,
    UndercutPricing,
    ValuePricingStrategy,
)
from ..netsim.addressing import AddressingMode, RenumberingModel
from .arrays import ConsumerBatch, random_doubles
from .vmarket import VectorMarket

# The result types are imported inside run_l01/run_l02, so the batch
# builders load without the experiments package.
if TYPE_CHECKING:
    from ..experiments.common import ExperimentResult

__all__ = [
    "lockin_batch",
    "lockin_market_at_scale",
    "value_pricing_batch",
    "value_pricing_market_at_scale",
    "run_l01",
    "run_l02",
    "DEFAULT_TIERS",
]

#: Population tiers run by default (kept modest: every registered
#: experiment is double-run by the lint seedcheck).  Pass
#: ``tiers=(100_000,)`` or ``(1_000_000,)`` explicitly for the big runs.
DEFAULT_TIERS: Tuple[int, ...] = (10_000,)


# ----------------------------------------------------------------------
# Scenario builders
# ----------------------------------------------------------------------
def _uniform_column(model: UniformWtp, u: np.ndarray) -> np.ndarray:
    """``model.sample`` applied to pre-drawn ``rng.random()`` values.

    ``random.uniform(a, b)`` evaluates ``a + (b - a) * random()``; the
    same two IEEE operations over an array give the same floats.
    """
    return model.low + (model.high - model.low) * u


def lockin_batch(switching_cost: float, n_consumers: int,
                 seed: int) -> ConsumerBatch:
    """E01's consumer population as columns (same draw stream).

    Mirrors ``lockin_market_spec``: wtp ~ UniformWtp(35, 110) drawn from
    ``random.Random(seed)`` in consumer order, everyone basic-segment
    and locked to the incumbent.
    """
    u = random_doubles(random.Random(seed), n_consumers)
    zeros = np.zeros(n_consumers, dtype=np.float64)
    return ConsumerBatch(
        wtp=_uniform_column(UniformWtp(35.0, 110.0), u),
        server_value=zeros,
        values_server=np.zeros(n_consumers, dtype=bool),
        switching_cost=np.full(n_consumers, switching_cost, dtype=np.float64),
        can_tunnel=np.zeros(n_consumers, dtype=bool),
        tunnel_cost=np.full(n_consumers, 2.0, dtype=np.float64),
        initial_provider="incumbent",
        name_prefix="site",
    )


def lockin_market_at_scale(switching_cost: float, n_consumers: int,
                           seed: int) -> VectorMarket:
    """The E01 market (incumbent + two undercutting rivals) at any N."""
    providers = [
        Provider(name="incumbent", price=45.0, unit_cost=5.0),
        Provider(name="rival-a", price=40.0, unit_cost=5.0),
        Provider(name="rival-b", price=42.0, unit_cost=5.0),
    ]
    strategies = {
        "incumbent": MonopolyPricing(price_cap=90.0),
        "rival-a": UndercutPricing(),
        "rival-b": UndercutPricing(),
    }
    return VectorMarket(
        providers=providers,
        batch=lockin_batch(switching_cost, n_consumers, seed),
        strategies=strategies,
        seed=seed,
    )


def value_pricing_batch(n_consumers: int, can_tunnel: bool,
                        seed: int) -> ConsumerBatch:
    """E02's mixed basic/business population as columns.

    Mirrors ``value_pricing_market_spec``: every third consumer is a
    server-runner (wtp ~ U(35, 70), server value 30, tunnel cost 3),
    the rest basic (wtp ~ U(25, 60)); everyone has switching cost 2.
    One shared ``random.Random(seed)`` stream, sampled in consumer
    order, keeps the draws identical to the scalar builder's.
    """
    u = random_doubles(random.Random(seed), n_consumers)
    values_server = np.arange(n_consumers) % 3 == 0
    wtp = np.where(values_server,
                   _uniform_column(UniformWtp(35.0, 70.0), u),
                   _uniform_column(UniformWtp(25.0, 60.0), u))
    server_value = np.where(values_server, 30.0, 0.0)
    tunnel_cost = np.where(values_server, 3.0, 2.0)
    return ConsumerBatch(
        wtp=wtp,
        server_value=server_value,
        values_server=values_server,
        switching_cost=np.full(n_consumers, 2.0, dtype=np.float64),
        can_tunnel=values_server & can_tunnel,
        tunnel_cost=tunnel_cost,
        initial_provider=None,
        name_prefix="home",
    )


def value_pricing_market_at_scale(
    n_providers: int, can_tunnel: bool, detects_tunnels: bool,
    n_consumers: int, seed: int,
) -> VectorMarket:
    """The E02 all-providers-tier market at any N."""
    providers = []
    strategies: Dict[str, ValuePricingStrategy] = {}
    for i in range(n_providers):
        name = f"isp{i}"
        providers.append(Provider(
            name=name,
            price=30.0,
            business_price=42.0,
            unit_cost=5.0,
            detects_tunnels=detects_tunnels,
        ))
        base = (MonopolyPricing(price_cap=45.0) if n_providers == 1
                else UndercutPricing())
        strategies[name] = ValuePricingStrategy(
            tier_multiple=1.4, base_strategy=base)
    return VectorMarket(
        providers=providers,
        batch=value_pricing_batch(n_consumers, can_tunnel, seed),
        strategies=strategies,
        seed=seed,
    )


def _tunnel_uptake(market: VectorMarket) -> float:
    """Fraction of server-running consumers currently tunnelling."""
    business = market.arrays.values_server
    n_business = int(np.count_nonzero(business))
    if n_business == 0:
        return 0.0
    return int(np.count_nonzero(market.arrays.tunnelling & business)) / n_business


# ----------------------------------------------------------------------
# L01 — lock-in at scale
# ----------------------------------------------------------------------
#: (label, addressing mode or None for provider-independent space) —
#: the same sweep E01 runs.
_L01_SCENARIOS = [
    ("static", AddressingMode.STATIC),
    ("dhcp", AddressingMode.DHCP),
    ("dhcp+ddns", AddressingMode.DHCP_DDNS),
    ("provider-independent", None),
]


def run_l01(
    tiers: Optional[Sequence[int]] = None,
    n_hosts_per_site: int = 20,
    rounds: int = 30,
    seed: int = 7,
) -> ExperimentResult:
    """E01's lock-in claim shape at 10^4+-consumer populations."""
    from ..experiments.common import ExperimentResult, Table

    tiers = tuple(DEFAULT_TIERS if tiers is None else tiers)
    model = RenumberingModel()
    table = Table(
        "L01: addressing mode vs lock-in at population scale",
        ["n", "mode", "switch_cost", "switch_rate",
         "final_price", "consumer_surplus"],
    )
    result = ExperimentResult(
        experiment_id="L01",
        title="Provider lock-in from IP addressing, at scale",
        paper_claim=("The E01 lock-in shape — cheap renumbering frees "
                     "switching, which disciplines prices and restores "
                     "surplus — holds for populations of 10^4-10^6, not "
                     "just hundreds."),
        tables=[table],
    )

    for n_consumers in tiers:
        rates = []
        prices = []
        surpluses = []
        for label, mode in _L01_SCENARIOS:
            provider_independent = mode is None
            cost = model.switching_cost(
                n_hosts_per_site,
                mode or AddressingMode.STATIC,
                provider_independent=provider_independent,
            )
            market = lockin_market_at_scale(cost, n_consumers, seed)
            market.run(rounds)
            consumer_rounds = n_consumers * rounds
            rate = (market.total_switches() / consumer_rounds
                    if consumer_rounds else 0.0)
            rates.append(rate)
            prices.append(market.mean_price())
            surpluses.append(market.total_consumer_surplus())
            table.add_row(
                n=n_consumers, mode=label, switch_cost=cost,
                switch_rate=rate, final_price=prices[-1],
                consumer_surplus=surpluses[-1],
            )
        result.add_check(
            f"n={n_consumers}: switching rises as renumbering gets cheaper",
            rates[0] <= rates[1] <= rates[2] and rates[0] < rates[2],
            detail=f"switch rates {['%.4f' % r for r in rates]}",
        )
        result.add_check(
            f"n={n_consumers}: prices are highest under static lock-in",
            prices[0] >= max(prices[1:]) - 1e-9,
            detail=f"final prices {['%.2f' % p for p in prices]}",
        )
        result.add_check(
            f"n={n_consumers}: surplus improves when switching is freed",
            surpluses[2] > surpluses[0] and surpluses[3] > surpluses[0],
            detail=f"surplus {['%.0f' % s for s in surpluses]}",
        )
    return result


# ----------------------------------------------------------------------
# L02 — value pricing at scale
# ----------------------------------------------------------------------
#: (label, n_providers, consumers can tunnel, providers detect tunnels)
_L02_CELLS = [
    ("monopoly", 1, False, False),
    ("monopoly", 1, True, False),
    ("competitive", 4, False, False),
    ("competitive", 4, True, False),
    ("monopoly+dpi", 1, True, True),
]


def run_l02(
    tiers: Optional[Sequence[int]] = None,
    rounds: int = 25,
    seed: int = 11,
) -> ExperimentResult:
    """E02's value-pricing/tunnelling claim shape at 10^4+ consumers."""
    from ..experiments.common import ExperimentResult, Table

    tiers = tuple(DEFAULT_TIERS if tiers is None else tiers)
    table = Table(
        "L02: value pricing x tunnelling at population scale",
        ["n", "market", "tunnels", "detects", "tunnel_uptake",
         "provider_profit", "consumer_surplus"],
    )
    result = ExperimentResult(
        experiment_id="L02",
        title="Value pricing vs tunnelling, at scale",
        paper_claim=("The E02 shape — tunnels shift power to consumers, "
                     "competition disciplines the tier, detection restores "
                     "extraction — holds for populations of 10^4-10^6."),
        tables=[table],
    )

    for n_consumers in tiers:
        cells: Dict[Tuple[str, bool, bool], Dict[str, float]] = {}
        for label, n_providers, can_tunnel, detects in _L02_CELLS:
            market = value_pricing_market_at_scale(
                n_providers, can_tunnel, detects, n_consumers, seed)
            market.run(rounds)
            row = {
                "tunnel_uptake": _tunnel_uptake(market),
                "provider_profit": market.total_provider_profit(),
                "consumer_surplus": market.total_consumer_surplus(),
            }
            cells[(label, can_tunnel, detects)] = row
            table.add_row(n=n_consumers, market=label, tunnels=can_tunnel,
                          detects=detects, **row)

        mono_plain = cells[("monopoly", False, False)]
        mono_tunnel = cells[("monopoly", True, False)]
        comp_plain = cells[("competitive", False, False)]
        mono_dpi = cells[("monopoly+dpi", True, True)]
        result.add_check(
            f"n={n_consumers}: tunnelling raises consumer surplus under "
            f"monopoly tiering",
            mono_tunnel["consumer_surplus"] > mono_plain["consumer_surplus"],
            detail=(f"surplus {mono_plain['consumer_surplus']:.0f} -> "
                    f"{mono_tunnel['consumer_surplus']:.0f}"),
        )
        result.add_check(
            f"n={n_consumers}: tunnelling cuts the monopolist's extraction",
            mono_tunnel["provider_profit"] < mono_plain["provider_profit"],
            detail=(f"profit {mono_plain['provider_profit']:.0f} -> "
                    f"{mono_tunnel['provider_profit']:.0f}"),
        )
        result.add_check(
            f"n={n_consumers}: competition alone disciplines extraction",
            comp_plain["provider_profit"] < mono_plain["provider_profit"]
            and comp_plain["consumer_surplus"] > mono_plain["consumer_surplus"],
            detail=(f"monopoly profit {mono_plain['provider_profit']:.0f} vs "
                    f"competitive {comp_plain['provider_profit']:.0f}"),
        )
        result.add_check(
            f"n={n_consumers}: tunnel detection restores extraction",
            mono_dpi["provider_profit"] > mono_tunnel["provider_profit"]
            and mono_dpi["tunnel_uptake"] < mono_tunnel["tunnel_uptake"] + 1e-9,
            detail=(f"profit {mono_tunnel['provider_profit']:.0f} -> "
                    f"{mono_dpi['provider_profit']:.0f} with DPI"),
        )
        result.add_check(
            f"n={n_consumers}: tunnels are actually used under monopoly "
            f"tiering",
            mono_tunnel["tunnel_uptake"] > 0.3,
            detail=f"uptake {mono_tunnel['tunnel_uptake']:.2f}",
        )
    return result
