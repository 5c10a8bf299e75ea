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


def oracle_constant_sum(game: Game):
    """The common sum of the payoff vectors, or None, summed as Fractions."""
    n = game.player_count
    sums = {sum(game.payoff(pure, i) for i in range(n)) for pure in game.pure_profiles()}
    return sums.pop() if len(sums) == 1 else None


def oracle_pareto_optimal_pure(game: Game, profile) -> bool:
    """No other pure profile pays every player at least as much and some more."""
    n = game.player_count
    mine = [game.payoff(profile, i) for i in range(n)]
    for other in game.pure_profiles():
        theirs = [game.payoff(other, i) for i in range(n)]
        if all(t >= v for t, v in zip(theirs, mine)) and any(t > v for t, v in zip(theirs, mine)):
            return False
    return True


def oracle_own_payoff_independent(game: Game) -> tuple:
    """Per player: does each pure complement give the player one payoff,
    whatever their own strategy?"""
    counts = game.strategy_counts
    flags = []
    for i, m in enumerate(counts):
        co_ranges = [range(k) for j, k in enumerate(counts) if j != i]
        flags.append(all(
            len({game.payoff(complement[:i] + (own,) + complement[i:], i) for own in range(m)}) == 1
            for complement in itertools.product(*co_ranges)))
    return tuple(flags)


def random_structure_game(rng: random.Random) -> Game:
    """A game of 1-4 players with 1-3 strategies each whose payoffs are tied
    (0 or 1), rational, or own-payoff-independent by construction, in which
    case some players may have one payoff moved so that they are not."""
    counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
    n = len(counts)
    kind = rng.choice(["tied", "rational", "independent"])

    def draw():
        return rng.randint(0, 1) if kind == "tied" else Fraction(rng.randint(-6, 6),
                                                                 rng.randint(1, 4))
    if kind == "independent":
        co = [{} for _ in counts]
        table = {p: [co[i].setdefault(p[:i] + p[i + 1:], draw()) for i in range(n)]
                 for p in profiles(counts)}
        for _ in range(rng.choice((0, 0, 1, 2))):
            table[rng.choice(list(table))][rng.randrange(n)] += 1
    else:
        table = {p: [draw() for _ in counts] for p in profiles(counts)}
    return Game(counts, table)


# ---------------------------------------------------------------------------
# Reference reader: a game document read one record, then one profile, at a
# time, in the order that decides which defect is named first: the reader
# names a record's defects, then Game a name's, a vector's or a payoff's.
# Documents given to it have a sound header.

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
        valid = set(profiles(counts))
        extra = [p for p in table if p not in valid][:5]
        raise ValueError("payoff table has entries for invalid profiles: "
                         f"[{', '.join(_clip(p) for p in extra)}]")
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
            raise GameFormatError(f"payoff record {_clip(rec)} needs 'profile' and 'u'")
        raw = rec["profile"]
        if type(raw) is not list or tuple(map(type, raw)) != int_profile:
            raise GameFormatError(f"profile {_clip(raw)} must be {n} integer indices")
        profile = tuple(raw)
        if not all(map(range.__contains__, ranges, profile)):
            j = next(j for j, i in enumerate(profile) if i not in ranges[j])
            raise GameFormatError(f"profile {_clip(raw)}: index {_clip(raw[j])} "
                                  f"of player {j + 1} out of range [0, {counts[j]})")
        if profile in table:
            raise GameFormatError(f"duplicate payoff record for profile {raw}")
        table[profile] = rec["u"]
    for name in itertools.chain.from_iterable(names):
        if not isinstance(name, str):
            raise GameFormatError(f"strategy name {_clip(name)} is not a string")
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
