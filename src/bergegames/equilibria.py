"""Nash and Berge equilibrium checks, best supports, and game structure.

Take player i's payoffs as a matrix U (`Game.own_by_complement`), own
strategies by complements, with own probabilities x and complement weights
w, the products of the co-players' probabilities.  The realized payoff is
xUw.  Nash asks whether some entry of the vector Uw beats it, Berge whether
some entry of xU does: one check, on U or on its transpose.  Pure entries
suffice, since the payoff is affine in x and multilinear in the co-players'
vectors, so its maximum over their simplices is at a vertex.

Verdicts therefore carry an exact *deficiency*: the largest gap any player
(Nash) or any coalition of co-players (Berge) could close.  Deficiency 0 is
exact equality; there is no tolerance anywhere.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .game import (Game, MixedProfile, MixedStrategy, PureProfile, UnsupportedGameError,
                   _clip, _mix, _numerators, _reduce, profiles)


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Boolean verdict plus the exact gap and a witness attaining it.

    For Nash the witness is ``(player, pure deviation index)``; for Berge it
    is ``(player, pure complement indices)`` with the complement listed in
    increasing player order, the checked player omitted.
    """

    is_equilibrium: bool
    deficiency: Fraction
    worst_witness: tuple

    def __post_init__(self):
        if self.is_equilibrium != (self.deficiency == 0):
            raise ValueError(f"inconsistent verdict: is_equilibrium={self.is_equilibrium} "
                             f"with deficiency {self.deficiency}")


@dataclass(frozen=True)
class BestSupportResult:
    """The exact maximum a player can receive from the co-players, with all
    pure complements attaining it (lexicographic order)."""

    player: int
    value: Fraction
    supports: tuple[tuple[int, ...], ...]


def best_own_deviation_value(game: Game, profile: MixedProfile, player: int) -> Fraction:
    """Max payoff `player` can reach by unilateral deviation, holding the
    co-players fixed.  Equals the supremum over mixed deviations by affinity."""
    game.validate_profile(profile)
    values, den, _ = _reduce(game, profile, player, nash=True)
    return Fraction(max(values), den)


def _verdict(game: Game, profile: MixedProfile, nash: bool) -> EquilibriumVerdict:
    # Per player, the best value over own strategies (Nash) or complements
    # (Berge) less the realized payoff read off the same values.  The witness:
    # the first player with the largest gap, and its first best move there.
    game.validate_profile(profile)
    worst = None
    for player in range(game.player_count):
        values, den, (weights, d) = _reduce(game, profile, player, nash)
        best = max(values)
        gap = Fraction(best * d - sum(map(operator.mul, weights, values)), den * d)
        if worst is None or gap > worst[0]:
            worst = gap, player, values.index(best)
    gap, player, k = worst
    counts = game.strategy_counts
    witness = k if nash else next(itertools.islice(
        profiles(counts[:player] + counts[player + 1:]), k, None))
    return EquilibriumVerdict(gap == 0, gap, (player, witness))


def is_nash(game: Game, profile: MixedProfile) -> EquilibriumVerdict:
    """Exact Nash check: no player gains by any unilateral (mixed) deviation."""
    return _verdict(game, profile, nash=True)


def best_support(game: Game, player: int, strategy: MixedStrategy) -> BestSupportResult:
    """Max of the player's expected payoff over all pure complements, with
    every maximizer.  By multilinearity this bounds all mixed complements."""
    if not isinstance(strategy, MixedStrategy):
        raise TypeError(f"{_clip(strategy)} is not a MixedStrategy")
    rows, den = game.own_by_complement(player)
    if len(strategy) != len(rows):
        raise ValueError("strategy does not match the player's strategy count")
    own, d = _numerators([strategy])
    values = _mix(own, rows)
    best = max(values)
    counts = game.strategy_counts
    supports = tuple(complement for complement, u
                     in zip(profiles(counts[:player] + counts[player + 1:]), values) if u == best)
    return BestSupportResult(player, Fraction(best, den * d), supports)


def is_berge(game: Game, profile: MixedProfile) -> EquilibriumVerdict:
    """Exact Berge check (in the sense of Zhukovskii): no coalition of all
    co-players of any player can raise that player's payoff."""
    return _verdict(game, profile, nash=False)


def _pure_equilibria(game: Game, over_own: bool) -> list[PureProfile]:
    # A pure profile is an equilibrium iff each player's payoff there is the
    # best among all profiles sharing its complement (Nash: no better own
    # deviation) or its own strategy (Berge: no better complement).
    attained = [game.attains_best(player, over_own) for player in range(game.player_count)]
    return list(itertools.compress(game.pure_profiles(), map(all, zip(*attained))))


def enumerate_pure_nash(game: Game) -> list[PureProfile]:
    """All pure Nash equilibria, lexicographic."""
    return _pure_equilibria(game, over_own=True)


def enumerate_pure_berge(game: Game) -> list[PureProfile]:
    """All pure Berge equilibria, lexicographic."""
    return _pure_equilibria(game, over_own=False)


def constant_sum(game: Game) -> Optional[Fraction]:
    """The common payoff-vector sum over all pure profiles, or None."""
    # The stored ints share one denominator, so equal int sums are equal sums.
    # The scan stops at the first sum that differs from the first.
    sums = map(sum, zip(*game._tensors))
    first = next(sums)
    if all(map(operator.eq, sums, itertools.repeat(first))):
        return Fraction(first, game._scale)
    return None


def own_payoff_independent(game: Game) -> tuple[bool, ...]:
    """Per player: is the player's payoff the same under every own strategy,
    for every fixed pure profile of the co-players?"""
    # It is iff all rows of the player's own-by-complement matrix are equal.
    return tuple(rows[1:] == rows[:-1]
                 for rows, _ in map(game.own_by_complement, range(game.player_count)))


def is_pareto_optimal_pure(game: Game, profile: Sequence[int]) -> bool:
    """True iff no other pure profile weakly dominates this one."""
    # Another vector dominates iff it is nowhere lower and not the same.
    index = game._index(profile)
    vec = tuple(t[index] for t in game._tensors)
    return not any(all(map(operator.ge, other, vec)) and other != vec
                   for other in zip(*game._tensors))


def swap_payoffs_2p(game: Game) -> Game:
    """The 2-player game with payoff vectors (u1, u2) turned into (u2, u1).

    Berge equilibria of the original game are exactly Nash equilibria of the
    swapped game, and vice versa.
    """
    if game.player_count != 2:
        raise UnsupportedGameError("payoff swap is defined for 2-player games only")
    table = {profile: tuple(reversed(game.payoff_vector(profile)))
             for profile in game.pure_profiles()}
    return Game(game.strategy_counts, table, game.strategy_names)
