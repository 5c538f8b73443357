"""Demand side: willingness to pay and consumer segments.

Value pricing (§V-A-2) works by dividing "customers into classes based on
their willingness to pay" — so the demand model distinguishes segments
(basic vs business/server-running households, mirroring the paper's
residential-broadband example) and draws per-consumer willingness to pay
from seeded distributions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict

from ..errors import MarketError

__all__ = ["Segment", "WtpDistribution", "UniformWtp"]


class Segment(Enum):
    """Consumer segments used by value-pricing strategies.

    BASIC consumers browse; BUSINESS consumers run servers at home (the
    behaviour the paper's acceptable-use policies prohibit without a
    higher "business" rate) and have higher willingness to pay.
    """

    BASIC = "basic"
    BUSINESS = "business"


class WtpDistribution:
    """Interface: draw one willingness-to-pay value."""

    def sample(self, rng: random.Random) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class UniformWtp(WtpDistribution):
    """Uniform willingness to pay on [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise MarketError(f"invalid WTP range [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


#: Default per-segment distributions: business WTP dominates basic WTP.
DEFAULT_SEGMENT_WTP: Dict[Segment, WtpDistribution] = {
    Segment.BASIC: UniformWtp(10.0, 40.0),
    Segment.BUSINESS: UniformWtp(40.0, 120.0),
}

