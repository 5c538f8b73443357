"""Economics substrate: markets, pricing, competition, investment.

Implements the agents and mechanisms behind the paper's economics tussle
space (§V-A): consumers and providers with conflicting interests, pricing
strategies (undercutting, monopoly, value pricing), a round-based access
market, market concentration, the fear-and-greed investment model and the
two-layer broadband facilities market.
"""

from .agents import Consumer, Provider
from .demand import Segment, UniformWtp, WtpDistribution
from .pricing import (
    MonopolyPricing,
    PricingStrategy,
    UndercutPricing,
    ValuePricingStrategy,
)
from .market import Market, MarketRound
from .competition import herfindahl_index
from .investment import (
    DeploymentChoice,
    InvestmentModel,
    QosFactorial,
    qos_deployment_game,
)
from .accesstech import (
    AccessRegime,
    Facility,
    build_access_market,
    build_service_providers,
)

__all__ = [
    "Consumer", "Provider",
    "Segment", "UniformWtp", "WtpDistribution",
    "MonopolyPricing", "PricingStrategy", "UndercutPricing",
    "ValuePricingStrategy",
    "Market", "MarketRound",
    "herfindahl_index",
    "DeploymentChoice", "InvestmentModel", "QosFactorial", "qos_deployment_game",
    "AccessRegime", "Facility", "build_access_market", "build_service_providers",
]
