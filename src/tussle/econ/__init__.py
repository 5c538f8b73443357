"""Economics substrate: markets, pricing, competition, investment.

Implements the agents and mechanisms behind the paper's economics tussle
space (§V-A): consumers and providers with conflicting interests, pricing
strategies (undercutting, monopoly, value pricing), a round-based access
market, market concentration, the fear-and-greed investment model and the
two-layer broadband facilities market.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".agents": ("Consumer", "Provider"),
    ".demand": ("Segment", "UniformWtp", "WtpDistribution"),
    ".pricing": ("MonopolyPricing", "PricingStrategy", "UndercutPricing",
                 "ValuePricingStrategy"),
    ".market": ("Market", "MarketRound"),
    ".competition": ("herfindahl_index",),
    ".investment": ("DeploymentCell", "DeploymentChoice", "InvestmentModel",
                    "deployment_game"),
    ".accesstech": ("AccessRegime", "Facility", "access_market_spec",
                    "build_service_providers"),
})
