#!/usr/bin/env python3
"""The §VII QoS post-mortem as an executable factorial.

"One can thus see the failure of QoS deployment as a failure first to
design any value-transfer mechanism to give the providers the possibility
of being rewarded for making the investment (greed), and second, a
failure to couple the design to a mechanism whereby the user can exercise
choice to select the provider who offered the service (competitive fear)."

This example runs the symmetric deployment game over all four cells of
(value flow x user choice), shows the equilibrium in each, and then the
ablation where vertical integration (closed deployment) is impossible.

Run:  python examples/qos_postmortem.py
"""

from tussle.econ.investment import InvestmentModel, deployment_game


def label(flag):
    return "yes" if flag else "no "


def main():
    model = InvestmentModel()
    print("QoS deployment game "
          f"(cost={model.deployment_cost:.0f}, "
          f"open revenue={model.open_service_revenue:.0f}/round, "
          f"closed revenue={model.closed_service_revenue:.0f}/round, "
          f"horizon={model.horizon})\n")

    print("value-flow  user-choice  ->  industry equilibrium")
    print("-" * 52)
    for cell in deployment_game(model):
        marker = "  <- the only OPEN deployment" if cell.open_deployment else ""
        print(f"   {label(cell.value_flow)}         {label(cell.user_choice)}"
              f"       ->  {cell.outcome.value}{marker}")

    print("\nWhy each failure cell fails:")
    print(" - no value flow: an open service earns nothing; the ISP ships a")
    print("   closed, bundled version 'at monopoly prices' instead;")
    print(" - no user choice: users cannot route to the deploying ISP, so an")
    print("   open service reaches only captive customers and never repays")
    print("   the investment; and not deploying loses no customers (no fear).")

    print("\nAblation: forbid closed deployment entirely "
          "(no vertical integration):")
    print("value-flow  user-choice  ->  equilibrium")
    print("-" * 44)
    for cell in deployment_game(model, allow_closed=False):
        print(f"   {label(cell.value_flow)}         {label(cell.user_choice)}"
              f"       ->  {cell.outcome.value}")
    print("\nWithout the closed escape hatch and without user choice, QoS")
    print("simply never deploys — the outcome the Internet actually saw.")
    print("(The no-value-flow/user-choice cell shows a fear-driven arms race:")
    print("everyone deploys an unprofitable open service purely to avoid")
    print("losing customers to rivals — deployment without a business case.)")


if __name__ == "__main__":
    main()
