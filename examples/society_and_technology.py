#!/usr/bin/env python3
"""The actor-network storyline of §II: durability, churn, collision.

Three acts, each a claim from the paper's theory section made executable:

1. "Technology is Society made Durable" — the seeded Internet's
   commitments already carry measurable durability.
2. "The network gets harder to change as it grows up" — without entrant
   churn the actor network harmonizes and freezes; with churn it stays
   changeable.
3. VoIP: a collision between actor networks, not technologies.

Run:  python examples/society_and_technology.py
"""

import numpy as np

from tussle.actornet import ChurnSimulation, collide, seed_internet_network
from tussle.actornet.durability import durability
from tussle.experiments.x05_collision import (
    build_internet_side,
    build_telephone_side,
)


def act1_durability():
    print("=== Act 1: technology is society made durable ===\n")
    network = seed_internet_network(rng=np.random.default_rng(1))
    print(f"  current durability: {durability(network):.2f}\n")


def act2_churn():
    print("=== Act 2: churn keeps the network changeable ===\n")
    for rate, label in ((0.0, "innovation stops"), (2.0, "entrants keep coming")):
        simulation = ChurnSimulation(
            seed_internet_network(rng=np.random.default_rng(2)),
            arrival_rate=rate, seed=2)
        simulation.run(30)
        frozen = simulation.froze_at()
        state = (f"FROZE at round {frozen}" if frozen is not None
                 else "still changeable")
        print(f"  arrival rate {rate:.1f} ({label}): {state}, "
              f"changeability {simulation.final_changeability():.2f}")
    print("\n  'Look for a time when innovation slows... a pre-condition of "
          "a durably formed\n  and unchangeable Internet.'\n")


def act3_collision():
    print("=== Act 3: VoIP — a collision of actor networks ===\n")
    internet = build_internet_side()
    telephone = build_telephone_side()
    print(f"  internet durability before:  {durability(internet):.2f} (young, loose)")
    print(f"  telephone durability before: {durability(telephone):.2f} (solidified)")
    _, result = collide(
        internet, telephone,
        bridges=[("voip-app", "carrier"), ("voip-app", "regulator"),
                 ("netizen0", "subscriber0")],
        settle_rounds=60,
    )
    print(f"  commitments dissolved in the collision: "
          f"{result.dissolved_commitments}")
    print(f"  value drift — internet side {result.drift_side_a:.2f}, "
          f"telephone side {result.drift_side_b:.2f}")
    print(f"  (the {'internet' if result.softer_side() == 'a' else 'telephone'} "
          f"side yielded more ground)")
    print("\n  'The key issue is not a collision of technologies, but a "
          "collision between\n  large, heterogeneous actor networks.'")


if __name__ == "__main__":
    act1_durability()
    act2_churn()
    act3_collision()
