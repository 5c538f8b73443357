"""Game-theory engine: the formal model of tussle (§II-B).

Normal-form games with a tussle taxonomy, an exact zero-sum solver, Nash
support enumeration, learning dynamics (fictitious play, replicator,
best-response), repeated-game strategies and tournaments, Vickrey/VCG
mechanism design with truthfulness verification, and constructors for the
paper's own canonical tussle games.
"""

from .games import NormalFormGame, TussleClass, classify_game
from .zerosum import ZeroSumSolution, minimax_value, solve_zero_sum
from .nash import MixedEquilibrium, best_response, support_enumeration
from .learning import (
    LearningResult,
    best_response_dynamics,
    fictitious_play,
    replicator_dynamics,
)
from .repeated import (
    COOPERATE,
    DEFECT,
    AlwaysCooperate,
    AlwaysDefect,
    GrimTrigger,
    MatchResult,
    Pavlov,
    RandomStrategy,
    RepeatedStrategy,
    TitForTat,
    cooperation_sustainable,
    play_match,
    prisoners_dilemma,
    round_robin,
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
    "LearningResult", "best_response_dynamics", "fictitious_play",
    "replicator_dynamics",
    "COOPERATE", "DEFECT", "AlwaysCooperate", "AlwaysDefect", "GrimTrigger",
    "MatchResult", "Pavlov", "RandomStrategy", "RepeatedStrategy", "TitForTat",
    "cooperation_sustainable", "play_match", "prisoners_dilemma", "round_robin",
    "AuctionResult", "VCGMechanism", "first_price_auction",
    "is_truthful_dominant", "vickrey_auction",
    "anonymity_game", "congestion_dilemma", "encryption_escalation_game",
    "peering_game", "wiretap_hide_seek",
]
