"""Game-theory engine: the formal model of tussle (§II-B).

Normal-form games with a tussle taxonomy, an exact zero-sum solver, Nash
support enumeration, best-response dynamics, repeated-game strategies and
matches, Vickrey/VCG mechanism design with truthfulness verification, and
constructors for the paper's own canonical tussle games.
"""

from .._lazy import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    ".games": ("NormalFormGame", "TussleClass", "classify_game"),
    ".zerosum": ("ZeroSumSolution", "minimax_value", "solve_zero_sum"),
    ".nash": ("MixedEquilibrium", "best_response", "support_enumeration"),
    ".learning": ("LearningResult", "best_response_dynamics"),
    ".repeated": ("COOPERATE", "DEFECT", "AlwaysDefect", "GrimTrigger",
                  "MatchResult", "RandomStrategy", "RepeatedStrategy",
                  "cooperation_sustainable", "play_match",
                  "prisoners_dilemma"),
    ".mechanism": ("AuctionResult", "VCGMechanism", "first_price_auction",
                   "is_truthful_dominant", "vickrey_auction"),
    ".tussle_games": ("anonymity_game", "congestion_dilemma",
                      "encryption_escalation_game", "peering_game",
                      "wiretap_hide_seek"),
})
