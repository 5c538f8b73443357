#!/usr/bin/env python3
"""Quickstart: model a tussle, run it, and score the design.

This walks the core API end to end:

1. define a tussle space with contested state variables;
2. add stakeholders with conflicting interests (users want transparency,
   providers want control) and the mechanisms the design exposes;
3. run the adaptation simulator under a *rigid* and a *flexible* design;
4. observe the paper's headline principle: "Rigid designs will be broken;
   designs that permit variation will flex under pressure and survive."

Run:  python examples/quickstart.py
"""

from tussle.core import (
    Mechanism,
    Stakeholder,
    StakeholderKind,
    TussleSimulator,
    TussleSpace,
    rigidity,
)


def build_space(transparency_knob_range):
    """One contested variable: how transparent the network is.

    Users pull toward full transparency (1.0); the provider pulls toward
    control (0.0). ``transparency_knob_range`` is the variation the
    design permits — (0, 1) designs the tussle in, a degenerate range
    dictates the outcome.
    """
    space = TussleSpace("transparency", initial_state={"transparency": 0.5})
    space.add_mechanism(Mechanism(
        name="transparency-knob",
        variable="transparency",
        allowed_range=transparency_knob_range,
    ))

    users = Stakeholder("users", StakeholderKind.USER, workaround_cost=0.05)
    users.add_interest("transparency", target=1.0)
    space.add_stakeholder(users)

    provider = Stakeholder("provider", StakeholderKind.COMMERCIAL_ISP,
                           workaround_cost=0.05)
    provider.add_interest("transparency", target=0.0)
    space.add_stakeholder(provider)
    return space


def run(label, knob_range, rounds=40):
    space = build_space(knob_range)
    r = rigidity(space.mechanisms, ["transparency"])
    outcome = TussleSimulator(space).run(rounds)
    print(f"--- {label} design (rigidity={r:.1f}) ---")
    print(f"  survived:            {outcome.survived}")
    print(f"  final integrity:     {outcome.final_integrity:.2f}")
    print(f"  moves / workarounds: {outcome.total_moves} / "
          f"{outcome.total_workarounds}")
    print(f"  settled:             {outcome.settled} "
          f"(the paper predicts contested tussles do not settle)")
    print()
    return outcome


def main():
    print("Tussle quickstart: users vs provider over network transparency\n")
    flexible = run("flexible", knob_range=(0.0, 1.0))
    rigid = run("rigid", knob_range=(0.5, 0.5))

    # Survival decides first, then how much of the design is left intact.
    scores = {label: (outcome.survived, outcome.final_integrity)
              for label, outcome in (("rigid", rigid), ("flexible", flexible))}
    if scores["rigid"] == scores["flexible"]:
        winner = "tie"
    else:
        winner = max(scores, key=scores.get)
    print(f"Winner under the paper's principles: {winner}")
    print("(Flexible designs absorb the fight as harmless in-design "
          "adjustment; rigid ones are broken by workarounds.)")


if __name__ == "__main__":
    main()
