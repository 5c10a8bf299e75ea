import itertools
import random
from fractions import Fraction

import pytest

from bergegames import Game, MixedProfile, MixedStrategy, builtin_game


@pytest.fixture(scope="session")
def eq5():
    return builtin_game("eq5")


@pytest.fixture(scope="session")
def pd():
    return builtin_game("pd")


@pytest.fixture(scope="session")
def zero222():
    return builtin_game("zero222")


@pytest.fixture(scope="session")
def sumgame222():
    return builtin_game("sumgame222")


def random_strategy(rng: random.Random, size: int, denom: int = 12) -> MixedStrategy:
    """A random rational distribution with small denominators."""
    weights = [rng.randint(0, denom) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return MixedStrategy(tuple(Fraction(w, total) for w in weights))


def random_profile(rng: random.Random, game: Game) -> MixedProfile:
    return MixedProfile(tuple(random_strategy(rng, m) for m in game.strategy_counts))


def random_game(rng: random.Random, players=None, max_strats=3, lo=-3, hi=3) -> Game:
    if players is None:
        players = rng.randint(1, 3)
    counts = tuple(rng.randint(1, max_strats) for _ in range(players))
    table = {p: tuple(rng.randint(lo, hi) for _ in range(players))
             for p in itertools.product(*(range(m) for m in counts))}
    return Game(counts, table)


def random_rational_table(rng: random.Random, players: int, max_strats=3, max_den=12):
    """Strategy counts and a payoff table of rationals num/den, num in
    [-12, 12] and den in [1, max_den], so denominators are mixed."""
    counts = tuple(rng.randint(1, max_strats) for _ in range(players))
    table = {p: tuple(Fraction(rng.randint(-12, 12), rng.randint(1, max_den))
                      for _ in range(players))
             for p in itertools.product(*(range(m) for m in counts))}
    return counts, table


# ---------------------------------------------------------------------------
# Independent brute-force oracles: direct evaluation of the defining
# inequalities at pure profiles, using only Game.payoff.  These never go
# through best_support / best_own_deviation_value.

def oracle_pure_nash(game: Game, profile) -> bool:
    n = game.player_count
    for i in range(n):
        for own in range(game.strategy_counts[i]):
            deviated = profile[:i] + (own,) + profile[i + 1:]
            if game.payoff(deviated, i) > game.payoff(profile, i):
                return False
    return True


def oracle_pure_berge(game: Game, profile) -> bool:
    n = game.player_count
    for i in range(n):
        co_ranges = [range(m) for j, m in enumerate(game.strategy_counts) if j != i]
        for complement in itertools.product(*co_ranges):
            other = list(complement)
            other.insert(i, profile[i])
            if game.payoff(tuple(other), i) > game.payoff(profile, i):
                return False
    return True


def oracle_expected_payoff(game: Game, profile: MixedProfile, player: int) -> Fraction:
    """Plain weighted sum over all pure profiles, written independently."""
    total = Fraction(0)
    for pure in itertools.product(*(range(m) for m in game.strategy_counts)):
        w = Fraction(1)
        for s, i in zip(profile.strategies, pure):
            w *= s.probs[i]
        total += w * game.payoff(pure, player)
    return total
