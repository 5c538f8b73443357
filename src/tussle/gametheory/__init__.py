"""Game-theory engine: the formal model of tussle (§II-B).

Normal-form games with a tussle taxonomy, an exact zero-sum solver, Nash
support enumeration, best-response dynamics, repeated-game strategies and
matches, Vickrey/VCG mechanism design with truthfulness verification, and
constructors for the paper's own canonical tussle games.
"""

from .games import NormalFormGame, TussleClass, classify_game
from .zerosum import ZeroSumSolution, minimax_value, solve_zero_sum
from .nash import MixedEquilibrium, best_response, support_enumeration
from .learning import LearningResult, best_response_dynamics
from .repeated import (
    COOPERATE,
    DEFECT,
    AlwaysDefect,
    GrimTrigger,
    MatchResult,
    RandomStrategy,
    RepeatedStrategy,
    cooperation_sustainable,
    play_match,
    prisoners_dilemma,
)
from .mechanism import (
    AuctionResult,
    VCGMechanism,
    first_price_auction,
    is_truthful_dominant,
    vickrey_auction,
)
from .tussle_games import (
    anonymity_game,
    congestion_dilemma,
    encryption_escalation_game,
    peering_game,
    wiretap_hide_seek,
)

__all__ = [
    "NormalFormGame", "TussleClass", "classify_game",
    "ZeroSumSolution", "minimax_value", "solve_zero_sum",
    "MixedEquilibrium", "best_response", "support_enumeration",
    "LearningResult", "best_response_dynamics",
    "COOPERATE", "DEFECT", "AlwaysDefect", "GrimTrigger", "MatchResult",
    "RandomStrategy", "RepeatedStrategy", "cooperation_sustainable",
    "play_match", "prisoners_dilemma",
    "AuctionResult", "VCGMechanism", "first_price_auction",
    "is_truthful_dominant", "vickrey_auction",
    "anonymity_game", "congestion_dilemma", "encryption_escalation_game",
    "peering_game", "wiretap_hide_seek",
]
