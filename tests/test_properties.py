"""Property tests over small random rational games, drawn by Hypothesis."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bergegames import (Game, MixedProfile, MixedStrategy, is_berge, is_nash,
                        parse_game, serialize_game, swap_payoffs_2p)
from bergegames.game import _clip, _too_long, digit_limit, rational

from conftest import oracle_expected_payoff

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80, database=None)

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def games(draw, players=st.integers(1, 3)):
    counts = tuple(draw(st.integers(1, 3)) for _ in range(draw(players)))
    n = len(counts)
    table = {p: tuple(draw(rationals) for _ in range(n))
             for p in itertools.product(*(range(m) for m in counts))}
    return Game(counts, table)


@st.composite
def games_with_profiles(draw, players=st.integers(1, 3)):
    game = draw(games(players))
    strategies = []
    for m in game.strategy_counts:
        weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                       .filter(any))
        strategies.append(MixedStrategy(tuple(Fraction(w, sum(weights)) for w in weights)))
    return game, MixedProfile(tuple(strategies))


def _with(profile, player, strategy):
    return profile.replace(player, MixedStrategy.point(strategy, len(profile[player])))


def oracle_deficiency(game, profile, kind):
    # The largest gain over the realized payoff from a pure own deviation
    # (Nash) or a pure complement (Berge), from the plain weighted sum.
    gaps = []
    for i, m in enumerate(game.strategy_counts):
        realized = oracle_expected_payoff(game, profile, i)
        if kind == "nash":
            moves = [_with(profile, i, s) for s in range(m)]
        else:
            co = [j for j in range(game.player_count) if j != i]
            moves = []
            for complement in itertools.product(*(range(game.strategy_counts[j]) for j in co)):
                moved = profile
                for j, s in zip(co, complement):
                    moved = _with(moved, j, s)
                moves.append(moved)
        gaps.append(max(oracle_expected_payoff(game, q, i) for q in moves) - realized)
    return max(max(gaps), Fraction(0))


def oracle_witness(game, profile, kind):
    # The lowest player with the largest gap, and there the first own
    # strategy (Nash) or the lexicographically first complement (Berge)
    # attaining the best value, from the plain weighted sum.
    best_moves = []
    for i, m in enumerate(game.strategy_counts):
        realized = oracle_expected_payoff(game, profile, i)
        if kind == "nash":
            moves = [(s, _with(profile, i, s)) for s in range(m)]
        else:
            co = [j for j in range(game.player_count) if j != i]
            moves = []
            for complement in itertools.product(*(range(game.strategy_counts[j]) for j in co)):
                moved = profile
                for j, s in zip(co, complement):
                    moved = _with(moved, j, s)
                moves.append((complement, moved))
        values = [(oracle_expected_payoff(game, q, i), move) for move, q in moves]
        best = max(v for v, _ in values)
        best_moves.append((best - realized, next(move for v, move in values if v == best)))
    worst = max(gap for gap, _ in best_moves)
    player = next(i for i, (gap, _) in enumerate(best_moves) if gap == worst)
    return player, best_moves[player][1]


@PROPERTY
@given(games())
def test_serialize_parse_round_trip(game):
    assert parse_game(serialize_game(game)) == game


@PROPERTY
@given(games_with_profiles())
def test_nash_verdict_matches_oracle(case):
    game, profile = case
    verdict = is_nash(game, profile)
    assert verdict.deficiency >= 0
    assert verdict.is_equilibrium == (verdict.deficiency == 0)
    assert verdict.deficiency == oracle_deficiency(game, profile, "nash")


@PROPERTY
@given(games_with_profiles())
def test_berge_verdict_matches_oracle(case):
    game, profile = case
    verdict = is_berge(game, profile)
    assert verdict.deficiency >= 0
    assert verdict.is_equilibrium == (verdict.deficiency == 0)
    assert verdict.deficiency == oracle_deficiency(game, profile, "berge")


@PROPERTY
@given(games_with_profiles(players=st.just(2)))
def test_berge_is_nash_of_swapped_game(case):
    # Player i's Berge gap is the co-player's Nash gap once payoffs swap.
    game, profile = case
    assert is_berge(game, profile).deficiency == is_nash(swap_payoffs_2p(game), profile).deficiency


@PROPERTY
@given(games_with_profiles(players=st.integers(1, 4)))
def test_worst_witness_matches_oracle(case):
    game, profile = case
    assert is_nash(game, profile).worst_witness == oracle_witness(game, profile, "nash")
    assert is_berge(game, profile).worst_witness == oracle_witness(game, profile, "berge")


# Characters of the direct spellings `-?D+` and `-?D+/D+`, and of spellings
# only `Fraction` reads or refuses: a sign, underscores, a decimal point, an
# exponent, a space, a non-ASCII digit '٣' that `Fraction` reads as 3, and a
# superscript '²' that it refuses.
MANTISSA = "0123456789-+/_. \u0663\u00b2"
# An exponent of at most two characters keeps every reading far below the
# digit limit, so `Fraction` alone gives the reading of each drawn string.
# '²' is left out of the exponent: rational's digit count of an exponent
# refuses it with int()'s message, not Fraction's, on a path the direct
# spellings never reach.
spellings = st.builds(operator.add, st.text(MANTISSA, max_size=10),
                      st.just("") | st.text(MANTISSA.replace("\u00b2", "e"), max_size=2)
                      .map("e".__add__))


def fraction_reading(text):
    # What rational(text) gives through Fraction: Fraction's reading of it, or
    # the refusal rational makes of it.
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return ValueError(f"malformed rational {_clip(text)} ({_clip(exc, str)})")
    if _too_long(value.numerator):   # read whole where int() has no digit limit
        return ValueError(f"numerator needs more than {digit_limit()} decimal digits")
    return value


def assert_reads_as_fraction(text):
    expected = fraction_reading(text)
    if isinstance(expected, ValueError):
        with pytest.raises(ValueError) as exc:
            rational(text)
        assert str(exc.value) == str(expected)
    else:
        value = rational(text)
        assert type(value) is Fraction and value == expected


@settings(PROPERTY, max_examples=1000)
@given(spellings)
def test_rational_agrees_with_fraction_on_drawn_spellings(text):
    assert_reads_as_fraction(text)


@pytest.mark.parametrize("text", [
    "1/0", "-0", "007/014", "3/-4", "+1", " 1", "1_0", "-12/34", "0/5", "1/", "/2", "--1",
    "4" * 41, "-" + "4" * 40, "7" * (digit_limit() + 1),
], ids=lambda text: text if len(text) <= 12 else f"{len(text)}-chars")
def test_rational_agrees_with_fraction_on_pinned_spellings(text):
    assert_reads_as_fraction(text)
