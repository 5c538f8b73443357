"""E01 — Provider lock-in from IP addressing (§V-A-1).

Paper claim: provider-based addresses lock customers in; mechanisms that
make renumbering cheap (DHCP, dynamic DNS) restore the consumer's ability
to switch, which disciplines prices; provider-independent space also frees
the customer but inflates the core forwarding table.

Workload: an access market with one price-creeping incumbent and two
undercutting rivals. Consumer switching cost is derived from the
addressing substrate (:class:`~tussle.netsim.addressing.RenumberingModel`)
per addressing mode. We sweep the mode and report switching, prices,
surplus and core-table cost. The scenarios, line-up and population are
L01's (:mod:`tussle.scale.large`) at a few hundred consumers; each cell
runs on :class:`~tussle.scale.vmarket.VectorMarket`, and the ``market``
parity pair holds it to the scalar :class:`~tussle.econ.market.Market`
bit for bit.
"""

from __future__ import annotations

from ..netsim.addressing import AddressRegistry, RenumberingModel
from ..scale.large import lockin_claims, lockin_outcomes
from .common import ExperimentResult, Table

__all__ = ["run_e01"]

#: E01's wording of the lock-in claims, in ``lockin_claims`` order.
_CLAIMS = [
    "switching rises as renumbering gets cheaper (static -> ddns/PI)",
    "prices are highest under static lock-in",
    "consumer surplus improves when switching is freed",
]


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

    for label, mode, cost, outcome in lockin_outcomes(
            n_hosts_per_site, n_consumers, rounds, seed):
        provider_independent = mode is None
        lockin = (0.0 if provider_independent
                  else model.lock_in_index(n_hosts_per_site, mode))

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

        table.add_row(mode=label, switch_cost=cost, lockin_index=lockin,
                      **outcome, core_table=registry.core_table_size())

    result = ExperimentResult(
        experiment_id="E01",
        title="Provider lock-in from IP addressing",
        paper_claim=("Easy renumbering (DHCP/DDNS) or PI addressing frees the "
                     "customer to switch, disciplining prices; PI space "
                     "inflates the core forwarding table."),
        tables=[table],
    )

    for claim, (holds, detail) in zip(_CLAIMS, lockin_claims(table.rows)):
        result.add_check(claim, holds, detail=detail)
    core_tables = table.column("core_table")
    result.add_check(
        "PI addressing blows up the core table relative to PA",
        core_tables[3] > 10 * core_tables[0],
        detail=f"core table entries {core_tables}",
    )
    return result
