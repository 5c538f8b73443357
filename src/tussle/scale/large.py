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

This module is the one home of both scenarios: E01/E02 run the same
cell lists, line-ups and batch builders at a few hundred consumers, and
the parity gate's ``market`` cases run them on both backends.  The
batch builders replay a Python ``random.Random(seed)`` draw sequence
into :class:`~tussle.scale.arrays.ConsumerBatch` columns, so a small-N
batch equals the population a ``Consumer``-by-``Consumer`` loop would
draw (tests keep that loop) while a 10^6 batch is just bigger arrays.

Both experiments take a ``tiers`` tuple; defaults stay modest because
the registry's seedcheck double-runs every experiment, and the 10^5 /
10^6 tiers run in the slow/large pytest lanes and via
``tussle sweep --grid``.
"""

from __future__ import annotations

import random
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
    "LOCKIN_SCENARIOS",
    "lockin_switching_cost",
    "lockin_batch",
    "lockin_market_spec",
    "lockin_outcomes",
    "lockin_claims",
    "VALUE_PRICING_CELLS",
    "value_pricing_batch",
    "value_pricing_market_spec",
    "value_pricing_outcomes",
    "value_pricing_claims",
    "run_l01",
    "run_l02",
    "DEFAULT_TIERS",
]

#: Population tiers run by default (kept modest: every registered
#: experiment is double-run by the lint seedcheck).  Pass
#: ``tiers=(100_000,)`` or ``(1_000_000,)`` explicitly for the big runs.
DEFAULT_TIERS: Tuple[int, ...] = (10_000,)


# ----------------------------------------------------------------------
# Lock-in (E01, L01)
# ----------------------------------------------------------------------
#: (label, addressing mode or None for provider-independent space): the
#: sweep E01 and L01 run.
LOCKIN_SCENARIOS = [
    ("static", AddressingMode.STATIC),
    ("dhcp", AddressingMode.DHCP),
    ("dhcp+ddns", AddressingMode.DHCP_DDNS),
    ("provider-independent", None),
]


def lockin_switching_cost(mode: Optional[AddressingMode],
                          n_hosts_per_site: int) -> float:
    """A site's cost to change providers under ``mode`` (``None``:
    provider-independent space)."""
    return RenumberingModel().switching_cost(
        n_hosts_per_site,
        mode or AddressingMode.STATIC,
        provider_independent=mode is None,
    )


def lockin_batch(switching_cost: float, n_consumers: int,
                 seed: int) -> ConsumerBatch:
    """The lock-in population: wtp ~ U(35, 110) drawn from
    ``random.Random(seed)`` in consumer order, everyone basic-segment
    and locked to the incumbent."""
    u = random_doubles(random.Random(seed), n_consumers)
    return ConsumerBatch.basic(UniformWtp(35.0, 110.0).from_unit(u),
                               switching_cost, initial_provider="incumbent",
                               name_prefix="site")


def lockin_market_spec(switching_cost: float, n_consumers: int,
                       seed: int) -> Dict[str, Any]:
    """:class:`VectorMarket` arguments for one lock-in cell: an incumbent
    with a price cap and two undercutting rivals.

    Fresh objects on every call, so each parity backend builds from
    its own call (the scalar side runs ``batch.to_consumers()``).
    """
    return dict(
        providers=[
            Provider(name="incumbent", price=45.0, unit_cost=5.0),
            Provider(name="rival-a", price=40.0, unit_cost=5.0),
            Provider(name="rival-b", price=42.0, unit_cost=5.0),
        ],
        batch=lockin_batch(switching_cost, n_consumers, seed),
        strategies={
            "incumbent": MonopolyPricing(price_cap=90.0),
            "rival-a": UndercutPricing(),
            "rival-b": UndercutPricing(),
        },
        seed=seed,
    )


def lockin_outcomes(
    n_hosts_per_site: int, n_consumers: int, rounds: int, seed: int,
) -> Iterator[Tuple[str, Optional[AddressingMode], float, Dict[str, float]]]:
    """Run the market of every :data:`LOCKIN_SCENARIOS` entry, in order,
    and yield its label, mode, switching cost and outcome — switches per
    consumer-round, final mean price and consumer surplus.

    Each market runs when its scenario is asked for, so a caller's own
    work for a scenario traces between that market's rounds and the
    next market's.
    """
    for label, mode in LOCKIN_SCENARIOS:
        cost = lockin_switching_cost(mode, n_hosts_per_site)
        market = VectorMarket(**lockin_market_spec(cost, n_consumers, seed))
        market.run(rounds)
        consumer_rounds = n_consumers * rounds
        yield label, mode, cost, {
            "switch_rate": (market.total_switches() / consumer_rounds
                            if consumer_rounds else 0.0),
            "final_price": market.mean_price(),
            "consumer_surplus": market.total_consumer_surplus(),
        }


def lockin_claims(rows: Sequence[Dict[str, float]]) -> List[Tuple[bool, str]]:
    """``(holds, detail)`` of the lock-in shape over one outcome per
    :data:`LOCKIN_SCENARIOS` entry, in order: switching rises as
    renumbering gets cheaper, prices are highest under static lock-in,
    and surplus improves when switching is freed."""
    rates = [row["switch_rate"] for row in rows]
    prices = [row["final_price"] for row in rows]
    surpluses = [row["consumer_surplus"] for row in rows]
    return [
        (rates[0] <= rates[1] <= rates[2] and rates[0] < rates[2],
         f"switch rates {['%.4f' % r for r in rates]}"),
        (prices[0] >= max(prices[1:]) - 1e-9,
         f"final prices {['%.2f' % p for p in prices]}"),
        (surpluses[2] > surpluses[0] and surpluses[3] > surpluses[0],
         f"surplus {['%.0f' % s for s in surpluses]}"),
    ]


# ----------------------------------------------------------------------
# Value pricing (E02, L02)
# ----------------------------------------------------------------------
#: (label, n_providers, consumers can tunnel, providers detect tunnels):
#: the cells E02 and L02 run.
VALUE_PRICING_CELLS = [
    ("monopoly", 1, False, False),
    ("monopoly", 1, True, False),
    ("competitive", 4, False, False),
    ("competitive", 4, True, False),
    ("monopoly+dpi", 1, True, True),
]


def value_pricing_batch(n_consumers: int, can_tunnel: bool,
                        seed: int) -> ConsumerBatch:
    """The value-pricing population: every third consumer runs a server
    (wtp ~ U(35, 70), server value 30, tunnel cost 3), the rest are basic
    (wtp ~ U(25, 60)); everyone has switching cost 2.  One
    ``random.Random(seed)`` stream, sampled in consumer order."""
    u = random_doubles(random.Random(seed), n_consumers)
    values_server = np.arange(n_consumers) % 3 == 0
    wtp = np.where(values_server,
                   UniformWtp(35.0, 70.0).from_unit(u),
                   UniformWtp(25.0, 60.0).from_unit(u))
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


def value_pricing_market_spec(n_providers: int, can_tunnel: bool,
                              detects_tunnels: bool, n_consumers: int,
                              seed: int) -> Dict[str, Any]:
    """:class:`VectorMarket` arguments for one value-pricing cell: every
    provider tiers a business rate on top of its base strategy (a price
    cap for a monopolist, undercutting under competition).

    Fresh objects on every call, like :func:`lockin_market_spec`.
    """
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
    return dict(providers=providers,
                batch=value_pricing_batch(n_consumers, can_tunnel, seed),
                strategies=strategies, seed=seed)


def value_pricing_outcomes(
    n_consumers: int, rounds: int, seed: int,
) -> Dict[Tuple[str, bool, bool], Dict[str, float]]:
    """Run the market of every :data:`VALUE_PRICING_CELLS` entry: its
    outcome — the share of server-running consumers tunnelling at the
    end, provider profit and consumer surplus — keyed ``(label,
    can_tunnel, detects)`` in cell order."""
    outcomes = {}
    for label, n_providers, can_tunnel, detects in VALUE_PRICING_CELLS:
        market = VectorMarket(**value_pricing_market_spec(
            n_providers, can_tunnel, detects, n_consumers, seed))
        market.run(rounds)
        business = market.arrays.values_server
        n_business = int(np.count_nonzero(business))
        tunnelling = int(np.count_nonzero(market.arrays.tunnelling & business))
        outcomes[(label, can_tunnel, detects)] = {
            "tunnel_uptake": tunnelling / n_business if n_business else 0.0,
            "provider_profit": market.total_provider_profit(),
            "consumer_surplus": market.total_consumer_surplus(),
        }
    return outcomes


def value_pricing_claims(
    cells: Dict[Tuple[str, bool, bool], Dict[str, float]],
) -> List[Tuple[bool, str]]:
    """``(holds, detail)`` of the value-pricing shape over the outcomes of
    :data:`VALUE_PRICING_CELLS`, keyed ``(label, can_tunnel, detects)``,
    in order: tunnelling raises consumer surplus under monopoly tiering
    and cuts the monopolist's extraction, competition alone disciplines
    extraction, tunnel detection restores it, and tunnels are used."""
    mono_plain = cells[("monopoly", False, False)]
    mono_tunnel = cells[("monopoly", True, False)]
    comp_plain = cells[("competitive", False, False)]
    mono_dpi = cells[("monopoly+dpi", True, True)]
    return [
        (mono_tunnel["consumer_surplus"] > mono_plain["consumer_surplus"],
         f"surplus {mono_plain['consumer_surplus']:.0f} -> "
         f"{mono_tunnel['consumer_surplus']:.0f}"),
        (mono_tunnel["provider_profit"] < mono_plain["provider_profit"],
         f"profit {mono_plain['provider_profit']:.0f} -> "
         f"{mono_tunnel['provider_profit']:.0f}"),
        (comp_plain["provider_profit"] < mono_plain["provider_profit"]
         and comp_plain["consumer_surplus"] > mono_plain["consumer_surplus"],
         f"monopoly profit {mono_plain['provider_profit']:.0f} vs "
         f"competitive {comp_plain['provider_profit']:.0f}"),
        (mono_dpi["provider_profit"] > mono_tunnel["provider_profit"]
         and mono_dpi["tunnel_uptake"] < mono_tunnel["tunnel_uptake"] + 1e-9,
         f"profit {mono_tunnel['provider_profit']:.0f} -> "
         f"{mono_dpi['provider_profit']:.0f} with DPI"),
        (mono_tunnel["tunnel_uptake"] > 0.3,
         f"uptake {mono_tunnel['tunnel_uptake']:.2f}"),
    ]


# ----------------------------------------------------------------------
# L01 — lock-in at scale
# ----------------------------------------------------------------------
#: L01's wording of the :func:`lockin_claims`, in order.
_L01_CLAIMS = [
    "switching rises as renumbering gets cheaper",
    "prices are highest under static lock-in",
    "surplus improves when switching is freed",
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
        outcomes = list(lockin_outcomes(n_hosts_per_site, n_consumers,
                                        rounds, seed))
        for label, _, cost, row in outcomes:
            table.add_row(n=n_consumers, mode=label, switch_cost=cost, **row)
        rows = [row for _, _, _, row in outcomes]
        for claim, (holds, detail) in zip(_L01_CLAIMS, lockin_claims(rows)):
            result.add_check(f"n={n_consumers}: {claim}", holds,
                             detail=detail)
    return result


# ----------------------------------------------------------------------
# L02 — value pricing at scale
# ----------------------------------------------------------------------
#: L02's wording of the :func:`value_pricing_claims`, in order.
_L02_CLAIMS = [
    "tunnelling raises consumer surplus under monopoly tiering",
    "tunnelling cuts the monopolist's extraction",
    "competition alone disciplines extraction",
    "tunnel detection restores extraction",
    "tunnels are actually used under monopoly tiering",
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
        cells = value_pricing_outcomes(n_consumers, rounds, seed)
        for (label, can_tunnel, detects), row in cells.items():
            table.add_row(n=n_consumers, market=label, tunnels=can_tunnel,
                          detects=detects, **row)
        for claim, (holds, detail) in zip(_L02_CLAIMS,
                                          value_pricing_claims(cells)):
            result.add_check(f"n={n_consumers}: {claim}", holds,
                             detail=detail)
    return result
