"""Exact-arithmetic toolkit for Berge and Nash equilibria in finite
normal-form games."""

from .game import (Game, MixedProfile, MixedStrategy, PureProfile,
                   UnsupportedGameError)
from .equilibria import (BestSupportResult, EquilibriumVerdict,
                         best_own_deviation_value, best_support, constant_sum,
                         enumerate_pure_berge, enumerate_pure_nash, is_berge,
                         is_nash, is_pareto_optimal_pure,
                         own_payoff_independent, swap_payoffs_2p)
from .search import (Box, CoordinateConflict, ExistenceCertificate,
                     decide_berge_existence_oi222, grid_search_min_deficiency,
                     simplex_grid)
from .gamefile import (GameFormatError, BUILTIN_NAMES, builtin_game, load_game,
                       parse_game, serialize_game)

__all__ = [
    "Game", "MixedProfile", "MixedStrategy", "PureProfile",
    "UnsupportedGameError",
    "BestSupportResult", "EquilibriumVerdict", "best_own_deviation_value",
    "best_support", "constant_sum", "enumerate_pure_berge",
    "enumerate_pure_nash", "is_berge", "is_nash", "is_pareto_optimal_pure",
    "own_payoff_independent", "swap_payoffs_2p",
    "Box", "CoordinateConflict", "ExistenceCertificate",
    "decide_berge_existence_oi222", "grid_search_min_deficiency",
    "simplex_grid",
    "GameFormatError", "BUILTIN_NAMES", "builtin_game", "load_game",
    "parse_game", "serialize_game",
]

__version__ = "0.1.0"
