#!/usr/bin/env python3
"""The residential broadband story of §V-A-3, played out in the market.

Simulates three worlds:

* the dialup era — many facilities open to any ISP;
* the feared duopoly — telco + cable, vertically integrated;
* duopoly + municipal fiber with open access at the natural boundary.

and reports prices, concentration (HHI) and consumer surplus for each,
plus the paper's warning that the wrong open-access boundary barely helps.

Run:  python examples/broadband_market.py
"""

from tussle.econ import Market, herfindahl_index
from tussle.econ.accesstech import AccessRegime, Facility, access_market_spec


def facilities_for(world):
    if world == "dialup era":
        return [Facility(f"pop{i}", wholesale_fee=6.0) for i in range(5)]
    if world == "duopoly":
        return [Facility("telco", wholesale_fee=8.0),
                Facility("cable", wholesale_fee=8.0)]
    return [Facility("telco", wholesale_fee=8.0),
            Facility("cable", wholesale_fee=8.0),
            Facility("muni-fiber", wholesale_fee=5.0, neutral=True)]


def simulate(world, regime, rounds=30):
    spec = access_market_spec(facilities_for(world), regime,
                              n_consumers=200, seed=3)
    # The scalar market takes the population as Consumer objects.
    market = Market(consumers=spec.pop("batch").to_consumers(), **spec)
    market.run(rounds)
    shares = [len(p.subscribers) / 200 for p in market.providers.values()
              if p.subscribers]
    return {
        "price": market.mean_price(),
        "hhi": herfindahl_index(shares) if shares else 1.0,
        "surplus": market.total_consumer_surplus(),
        "retailers": len(market.providers),
    }


def report(world, regime, stats):
    print(f"{world:24s} {regime.value:22s} "
          f"price={stats['price']:6.2f}  HHI={stats['hhi']:.3f}  "
          f"retailers={stats['retailers']:2d}  "
          f"surplus={stats['surplus']:9.0f}")


def main():
    print("Residential broadband: market structure vs open-access regime\n")
    scenarios = [
        ("dialup era", AccessRegime.OPEN_NATURAL_BOUNDARY),
        ("duopoly", AccessRegime.CLOSED),
        ("duopoly", AccessRegime.OPEN_WRONG_BOUNDARY),
        ("duopoly", AccessRegime.OPEN_NATURAL_BOUNDARY),
        ("duopoly + muni fiber", AccessRegime.OPEN_NATURAL_BOUNDARY),
    ]
    results = {}
    for world, regime in scenarios:
        stats = simulate(world, regime)
        results[(world, regime)] = stats
        report(world, regime, stats)

    closed = results[("duopoly", AccessRegime.CLOSED)]
    wrong = results[("duopoly", AccessRegime.OPEN_WRONG_BOUNDARY)]
    natural = results[("duopoly", AccessRegime.OPEN_NATURAL_BOUNDARY)]
    print()
    print(f"Duopoly price premium over open access: "
          f"{closed['price'] - natural['price']:.2f}")
    print(f"Price relief from the WRONG boundary:   "
          f"{closed['price'] - wrong['price']:.2f}")
    print(f"Price relief from the NATURAL boundary: "
          f"{closed['price'] - natural['price']:.2f}")
    print("\nThe paper: proposals that implement open access at the natural "
          "modularity boundary\n(facilities vs ISP service) 'are more likely "
          "to benefit the Internet as a whole'.")


if __name__ == "__main__":
    main()
