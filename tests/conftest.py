import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from bergegames import Game, GameFormatError, MixedProfile, MixedStrategy, builtin_game
from bergegames.game import _clip, profiles, rational


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


# ---------------------------------------------------------------------------
# Reference reader: a game document read one record, then one profile, at a
# time, in the order that decides which defect is named first.  Documents
# given to it have a sound header.

def reference_vectors(table, counts):
    """The payoff vectors of a table in profile order, one profile at a time;
    raises Game's error at the first defect."""
    n = len(counts)
    vectors = []
    for profile in profiles(counts):
        try:
            vec = table[profile]
        except KeyError:
            raise ValueError(f"missing payoff for profile {profile}") from None
        if not isinstance(vec, (list, tuple)):
            raise TypeError(f"payoff vector at {profile} must be a list or tuple")
        if len(vec) != n:
            raise ValueError(f"payoff vector at {profile} has length {len(vec)}, expected {n}")
        vectors.append(vec)
    if len(table) != math.prod(counts):
        extra = set(table) - set(profiles(counts))
        raise ValueError(f"payoff table has entries for invalid profiles: {sorted(extra)}")
    return vectors


def reference_parse(text: str) -> Game:
    """parse_game's answer for a document, or its GameFormatError."""
    doc = json.loads(text)
    n, names = doc["players"], doc["strategies"]
    counts = tuple(map(len, names))
    int_profile = (int,) * n
    ranges = [range(m) for m in counts]
    table = {}
    for rec in doc["payoffs"]:
        if type(rec) is not dict or "profile" not in rec or "u" not in rec:
            raise GameFormatError(f"payoff record {_clip(repr(rec))} needs 'profile' and 'u'")
        raw = rec["profile"]
        if type(raw) is not list or tuple(map(type, raw)) != int_profile:
            raise GameFormatError(f"profile {_clip(repr(raw))} must be {n} integer indices")
        profile = tuple(raw)
        if not all(map(range.__contains__, ranges, profile)):
            j = next(j for j, i in enumerate(profile) if i not in ranges[j])
            raise GameFormatError(f"profile {_clip(repr(raw))}: index {_clip(repr(raw[j]))} "
                                  f"of player {j + 1} out of range [0, {counts[j]})")
        if profile in table:
            raise GameFormatError(f"duplicate payoff record for profile {raw}")
        u = rec["u"]
        if type(u) is not list or len(u) != n:
            raise GameFormatError(f"profile {raw}: 'u' must have {n} entries")
        table[profile] = u
    expected = math.prod(counts)
    if len(table) != expected:
        missing = itertools.islice((p for p in profiles(counts) if p not in table), 5)
        raise GameFormatError(f"expected {expected} payoff records, got {len(table)}; "
                              f"missing profiles: {[list(p) for p in missing]}")
    try:
        vectors = reference_vectors(table, counts)
    except (ValueError, TypeError) as exc:
        raise GameFormatError(str(exc)) from None
    read = {}
    for profile, vec in zip(profiles(counts), vectors):
        for j, u in enumerate(vec):
            try:
                read.setdefault(profile, []).append(rational(u))
            except (ValueError, TypeError) as exc:
                raise GameFormatError(f"profile {list(profile)}, player {j + 1}: {exc}") from None
    try:
        return Game(counts, {p: tuple(vec) for p, vec in read.items()}, names)
    except ValueError as exc:   # the payoffs' common denominator is too long
        raise GameFormatError(str(exc)) from None
