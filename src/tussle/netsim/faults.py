"""User-facing fault reports.

"Failures of transparency will occur — design what happens then. Today,
when an IP address is unreachable, there is little in the way of helpful
information about why... Tools for fault isolation and error reporting
would help — the hard challenge is not so much to find the fault but to
report the problem to the right person in the right language" (§VI-A).

:class:`FaultReporter` translates a delivery receipt into a report aimed
at one of the paper's audiences (the user who can choose a different
provider, or the operator who can fix the fault).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .forwarding import DeliveryReceipt, DeliveryStatus

__all__ = ["Audience", "FaultReport", "FaultReporter"]


class Audience(Enum):
    """Who a fault report is written for (the paper's 'right person')."""

    END_USER = "end-user"
    OPERATOR = "operator"


@dataclass
class FaultReport:
    """A fault report in the right language for its audience.

    ``actionable`` captures the paper's point that fault reporting is "as
    much a tool of tussle management as... technical repair": a report is
    actionable for an end user if it tells them enough to choose a
    different path or provider, and for an operator if it localizes the
    fault to something they can fix.
    """

    audience: Audience
    summary: str
    location: Optional[str]
    actionable: bool
    receipt: DeliveryReceipt


class FaultReporter:
    """Turns delivery receipts into audience-appropriate reports."""

    def report(self, receipt: DeliveryReceipt, audience: Audience) -> FaultReport:
        if receipt.delivered:
            return FaultReport(audience, "delivered", receipt.delivered_to, False, receipt)
        location = receipt.interfering_node or (receipt.path[-1] if receipt.path else None)
        if audience is Audience.END_USER:
            return self._user_report(receipt, location)
        return self._operator_report(receipt, location)

    def _user_report(self, receipt: DeliveryReceipt, location: Optional[str]) -> FaultReport:
        status = receipt.status
        if status is DeliveryStatus.DROPPED_BY_MIDDLEBOX:
            if receipt.interfering_node and "blocked by" in receipt.diagnostic:
                summary = (f"Your traffic is being blocked near {location!r}. "
                           f"You may choose a different provider or path.")
                return FaultReport(Audience.END_USER, summary, location, True, receipt)
            summary = "Your traffic is disappearing inside the network; cause undisclosed."
            return FaultReport(Audience.END_USER, summary, location, False, receipt)
        if status in (DeliveryStatus.NO_ROUTE, DeliveryStatus.LINK_DOWN):
            summary = f"The destination is unreachable (problem near {location!r})."
            return FaultReport(Audience.END_USER, summary, location, True, receipt)
        if status is DeliveryStatus.SOURCE_ROUTE_REFUSED:
            summary = (f"Provider at {location!r} refuses your chosen route; "
                       f"pick another provider or accept their routing.")
            return FaultReport(Audience.END_USER, summary, location, True, receipt)
        summary = f"Delivery failed ({status.value})."
        return FaultReport(Audience.END_USER, summary, location, False, receipt)

    def route(self, receipt: DeliveryReceipt,
              provider_nodes: Iterable[str]) -> FaultReport:
        """Address the report to the actor who can act on it (§VI-A).

        The paper's "right person": a failure localized *inside the
        provider's network* is the operator's to fix, so the report is
        written for :attr:`Audience.OPERATOR`; a failure at the edge, at
        an unknown location, or outside the provider is routed to the
        end user, whose remedy is to choose differently.
        """
        providers = set(provider_nodes)
        if receipt.delivered:
            return self.report(receipt, Audience.END_USER)
        location = receipt.interfering_node or (
            receipt.path[-1] if receipt.path else None)
        if location is not None and location in providers:
            return self.report(receipt, Audience.OPERATOR)
        return self.report(receipt, Audience.END_USER)

    def _operator_report(self, receipt: DeliveryReceipt, location: Optional[str]) -> FaultReport:
        status = receipt.status
        actionable = location is not None and status in (
            DeliveryStatus.LINK_DOWN,
            DeliveryStatus.NO_ROUTE,
            DeliveryStatus.TTL_EXCEEDED,
            DeliveryStatus.DROPPED_BY_MIDDLEBOX,
        )
        summary = (f"{status.value} at {location!r}: {receipt.diagnostic} "
                   f"(path so far: {' > '.join(receipt.path)})")
        return FaultReport(Audience.OPERATOR, summary, location, actionable, receipt)

