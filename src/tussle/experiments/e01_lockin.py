"""E01 — Provider lock-in from IP addressing (§V-A-1).

Paper claim: provider-based addresses lock customers in; mechanisms that
make renumbering cheap (DHCP, dynamic DNS) restore the consumer's ability
to switch, which disciplines prices; provider-independent space also frees
the customer but inflates the core forwarding table.

Workload: an access market with one price-creeping incumbent and two
undercutting rivals. Consumer switching cost is derived from the
addressing substrate (:class:`~tussle.netsim.addressing.RenumberingModel`)
per addressing mode. We sweep the mode and report switching, prices,
surplus and core-table cost. Each cell runs on
:class:`~tussle.scale.vmarket.VectorMarket`; the ``market`` parity pair
holds it to the scalar :class:`~tussle.econ.market.Market` bit for bit.
"""

from __future__ import annotations

import random

from ..econ import Consumer, MonopolyPricing, Provider, UndercutPricing
from ..econ.demand import Segment, UniformWtp
from ..netsim.addressing import AddressingMode, AddressRegistry, RenumberingModel
from ..scale.vmarket import VectorMarket
from .common import ExperimentResult, Table

__all__ = ["run_e01", "LOCKIN_SCENARIOS", "lockin_market_spec"]

#: (label, addressing mode or None for provider-independent space)
LOCKIN_SCENARIOS = [
    ("static", AddressingMode.STATIC),
    ("dhcp", AddressingMode.DHCP),
    ("dhcp+ddns", AddressingMode.DHCP_DDNS),
    ("provider-independent", None),
]


def lockin_market_spec(switching_cost: float, n_consumers: int,
                       seed: int) -> dict:
    """Constructor kwargs for one E01 lock-in market cell.

    Returns fresh provider/consumer objects on every call so the same
    spec can build both the scalar :class:`~tussle.econ.market.Market`
    and the vectorized ``tussle.scale`` backend (the parity harness
    does exactly that).
    """
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
    rng = random.Random(seed)
    wtp = UniformWtp(35.0, 110.0)
    consumers = [
        Consumer(
            name=f"site{i}",
            wtp=wtp.sample(rng),
            segment=Segment.BASIC,
            switching_cost=switching_cost,
            provider="incumbent",   # everyone starts locked to the incumbent
        )
        for i in range(n_consumers)
    ]
    return dict(providers=providers, consumers=consumers,
                strategies=strategies, seed=seed)


def _market_with_switching_cost(switching_cost: float, n_consumers: int,
                                rounds: int, seed: int) -> VectorMarket:
    market = VectorMarket(**lockin_market_spec(switching_cost, n_consumers,
                                               seed))
    market.run(rounds)
    return market


def run_e01(
    n_consumers: int = 120,
    n_hosts_per_site: int = 20,
    rounds: int = 30,
    seed: int = 7,
) -> ExperimentResult:
    """Run the lock-in sweep and check the paper's shape."""
    model = RenumberingModel()
    table = Table(
        "E01: addressing mode vs lock-in, switching, price, surplus",
        ["mode", "switch_cost", "lockin_index", "switch_rate",
         "final_price", "consumer_surplus", "core_table"],
    )

    for label, mode in LOCKIN_SCENARIOS:
        provider_independent = mode is None
        cost = model.switching_cost(
            n_hosts_per_site,
            mode or AddressingMode.STATIC,
            provider_independent=provider_independent,
        )
        lockin = (0.0 if provider_independent
                  else model.lock_in_index(n_hosts_per_site, mode))
        market = _market_with_switching_cost(cost, n_consumers, rounds, seed)

        # Core-table cost: 3 provider aggregates, plus one PI entry per
        # customer when customers hold provider-independent space.
        registry = AddressRegistry()
        for asn in (1, 2, 3):
            registry.allocate_aggregate(asn)
        for i in range(n_consumers):
            if provider_independent:
                registry.assign_provider_independent(f"site{i}")
            else:
                registry.assign_customer_block(f"site{i}", provider_asn=1)

        consumer_rounds = n_consumers * rounds
        table.add_row(
            mode=label,
            switch_cost=cost,
            lockin_index=lockin,
            switch_rate=(market.total_switches() / consumer_rounds
                         if consumer_rounds else 0.0),
            final_price=market.mean_price(),
            consumer_surplus=market.total_consumer_surplus(),
            core_table=registry.core_table_size(),
        )

    result = ExperimentResult(
        experiment_id="E01",
        title="Provider lock-in from IP addressing",
        paper_claim=("Easy renumbering (DHCP/DDNS) or PI addressing frees the "
                     "customer to switch, disciplining prices; PI space "
                     "inflates the core forwarding table."),
        tables=[table],
    )

    switch_rates = table.column("switch_rate")
    prices = table.column("final_price")
    surpluses = table.column("consumer_surplus")
    core_tables = table.column("core_table")

    result.add_check(
        "switching rises as renumbering gets cheaper (static -> ddns/PI)",
        switch_rates[0] <= switch_rates[1] <= switch_rates[2]
        and switch_rates[0] < switch_rates[2],
        detail=f"switch rates {['%.4f' % s for s in switch_rates]}",
    )
    result.add_check(
        "prices are highest under static lock-in",
        prices[0] >= max(prices[1:]) - 1e-9,
        detail=f"final prices {['%.2f' % p for p in prices]}",
    )
    result.add_check(
        "consumer surplus improves when switching is freed",
        surpluses[2] > surpluses[0] and surpluses[3] > surpluses[0],
        detail=f"surplus {['%.0f' % s for s in surpluses]}",
    )
    result.add_check(
        "PI addressing blows up the core table relative to PA",
        core_tables[3] > 10 * core_tables[0],
        detail=f"core table entries {core_tables}",
    )
    return result
