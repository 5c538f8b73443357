"""Economics substrate: markets, pricing, competition, investment.

Implements the agents and mechanisms behind the paper's economics tussle
space (§V-A): consumers and providers with conflicting interests, pricing
strategies (flat, undercutting, monopoly, value pricing), a round-based
access market, competition metrics, the fear-and-greed investment model
and the two-layer broadband facilities market.
"""

from .agents import Consumer, Provider
from .demand import (
    DemandCurve,
    LogNormalWtp,
    Segment,
    UniformWtp,
    WtpDistribution,
)
from .pricing import (
    FlatPricing,
    MonopolyPricing,
    PricingStrategy,
    UndercutPricing,
    ValuePricingStrategy,
)
from .market import Market, MarketRound
from .competition import (
    CompetitionReport,
    competition_report,
    effective_competitors,
    herfindahl_index,
    lerner_index,
)
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
    "DemandCurve", "LogNormalWtp", "Segment", "UniformWtp", "WtpDistribution",
    "FlatPricing", "MonopolyPricing", "PricingStrategy", "UndercutPricing",
    "ValuePricingStrategy",
    "Market", "MarketRound",
    "CompetitionReport", "competition_report", "effective_competitors",
    "herfindahl_index", "lerner_index",
    "DeploymentChoice", "InvestmentModel", "QosFactorial", "qos_deployment_game",
    "AccessRegime", "Facility", "build_access_market", "build_service_providers",
]
