import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from bergegames import (Game, MixedProfile, MixedStrategy, best_support, is_berge, parse_game,
                        serialize_game)
from bergegames.game import digit_limit, rational

from conftest import (oracle_expected_payoff, random_profile, random_rational_table,
                      random_strategy, random_game)


def half():
    return MixedStrategy((Fraction(1, 2), Fraction(1, 2)))


class TestConstruction:
    def test_strategy_must_normalize(self):
        with pytest.raises(ValueError):
            MixedStrategy((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError):
            MixedStrategy((Fraction(3, 2), Fraction(-1, 2)))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            MixedStrategy((0.5, 0.5))

    def test_reader_refuses_bool_and_oversized_decimal(self):
        # Game and MixedStrategy read their numbers as documents do: a bool
        # is not a rational, and a decimal past digit_limit() digits is
        # refused before any big-integer work.
        with pytest.raises(TypeError, match="boolean"):
            Game((1,), {(0,): (True,)})
        with pytest.raises(TypeError, match="boolean"):
            MixedStrategy((True,))
        for build in (lambda: Game((1,), {(0,): ("1e-10000000",)}),
                      lambda: MixedStrategy(("1e-10000000",))):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="decimal digits"):
                build()
            assert time.perf_counter() - start < 0.1

    def test_point_and_uniform(self):
        s = MixedStrategy.point(1, 3)
        assert s.probs == (0, 1, 0)
        assert MixedStrategy.uniform(4).probs == (Fraction(1, 4),) * 4
        with pytest.raises(ValueError):
            MixedStrategy.point(3, 3)

    def test_game_requires_full_table(self):
        with pytest.raises(ValueError):
            Game((2, 2), {(0, 0): (0, 0), (0, 1): (0, 0), (1, 0): (0, 0)})

    def test_huge_shape_with_short_table_refused_cheaply(self):
        # Neither the default names nor the profile walk grow with a shape
        # that the table is far too short for.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("missing payoff for profile (0,)")):
                Game((10 ** 6,), {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_game_rejects_wrong_vector_length(self):
        with pytest.raises(ValueError):
            Game((2,), {(0,): (1, 2), (1,): (0, 0)})

    def test_common_denominator_capped(self):
        # The lcm of the payoff denominators may need at most digit_limit()
        # digits: 10**(limit - 1) has exactly that many, 10**limit one more.
        limit = digit_limit()
        g = Game((2,), {(0,): (Fraction(1, 10 ** (limit - 1)),), (1,): (1,)})
        assert g.payoff((0,), 0) == Fraction(1, 10 ** (limit - 1))
        with pytest.raises(ValueError, match="common denominator"):
            Game((2,), {(0,): (Fraction(1, 10 ** limit),), (1,): (1,)})

    def test_total_payoff_digits_capped(self):
        # Every stored payoff carries the common denominator, so the payoff
        # count times its digits may be at most 1000 * digit_limit().
        limit = digit_limit()
        tiny = Fraction(1, 10 ** (limit - 1))
        g = Game((1000,), {(i,): (tiny if i == 0 else i,) for i in range(1000)})
        assert g.payoff((0,), 0) == tiny
        with pytest.raises(ValueError, match="in all"):
            Game((1001,), {(i,): (tiny if i == 0 else i,) for i in range(1001)})

    def test_payoff_vector_must_be_list_or_tuple(self):
        # A str or a dict is sized and iterable, but is not a payoff vector:
        # '37' is not the payoffs (3, 7), nor {'5': 0} the payoff 5.
        with pytest.raises(TypeError, match="list or tuple"):
            Game((1, 1), {(0, 0): '37'})
        with pytest.raises(TypeError, match="list or tuple"):
            Game((1,), {(0,): {'5': 0}})
        assert Game((1, 1), {(0, 0): [3, 7]}).payoff_vector((0, 0)) == (3, 7)

    def test_probabilities_must_be_list_or_tuple(self):
        for probs in ('1', {'1': 0}, iter([1])):
            with pytest.raises(TypeError, match="list or tuple"):
                MixedStrategy(probs)
        assert MixedStrategy([Fraction(1, 2), '1/2']).probs == (Fraction(1, 2),) * 2

    def test_strategy_counts_must_be_ints(self):
        # Neither truncated (2.9 to 2), nor read (True as 1, '2' as 2).
        for counts in ((2.9, True), ('2',), (True,), (Fraction(2),)):
            with pytest.raises(TypeError, match="strategy counts"):
                Game(counts, {})
        assert Game([2], {(0,): (0,), (1,): (1,)}).strategy_counts == (2,)

    def test_numerators_capped(self):
        # A numerator of digit_limit() digits builds and survives the round
        # trip; one digit more is refused, as a payoff (int or Fraction) and
        # as a probability, before any number is formatted.
        limit = digit_limit()
        for u in (10 ** (limit - 1), -10 ** (limit - 1), Fraction(10 ** (limit - 1), 3)):
            g = Game((2,), {(0,): (u,), (1,): (1,)})
            assert parse_game(serialize_game(g)) == g and g.payoff((0,), 0) == u
        message = f"numerator needs more than {limit} decimal digits"
        for u in (10 ** limit, -10 ** limit, Fraction(10 ** limit, 3), 10 ** 5000):
            with pytest.raises(ValueError) as exc:
                Game((2,), {(0,): (1,), (1,): (u,)})
            assert str(exc.value) == f"profile [1], player 1: {message}"
        with pytest.raises(ValueError) as exc:
            MixedStrategy((10 ** limit, 1 - 10 ** limit))
        assert str(exc.value) == message

    def test_probability_denominators_capped(self):
        # A mixed strategy's common denominator may need at most digit_limit() digits.
        limit = digit_limit()
        d = 10 ** (limit - 1)
        assert str(MixedStrategy((Fraction(1, d), 1 - Fraction(1, d))).probs[1]) == f"{d - 1}/{d}"
        e = Fraction(1, 10 ** limit)
        with pytest.raises(ValueError) as exc:
            MixedStrategy((e, 1 - e))
        assert str(exc.value) == ("the common denominator of the probabilities needs more "
                                  f"than {limit} decimal digits")

    def test_table_read_by_position(self):
        # A table that is not all ints and strs is read entry by entry: True
        # and 1.0 equal the Fraction(1) before them, yet are each refused at
        # their own profile, the first in profile order reported.
        table = {(0,): (Fraction(1),), (1,): (True,), (2,): (1.0,)}
        with pytest.raises(TypeError) as exc:
            Game((3,), table)
        assert str(exc.value) == "profile [1], player 1: boolean is not a rational"
        with pytest.raises(TypeError) as exc:
            Game((2,), {(0,): (Fraction(1),), (1,): (1.0,)})
        assert str(exc.value).startswith("profile [1], player 1: floating-point values")
        # Equal Fractions give the game their ints give.
        ints = {p: (p[0] % 2, 3, -p[1]) for p in itertools.product(range(2), range(3), range(2))}
        fractions = {p: tuple(map(Fraction, u)) for p, u in ints.items()}
        assert Game((2, 3, 2), fractions) == Game((2, 3, 2), ints)

    def test_repr_and_foreign_equality(self, eq5):
        assert repr(eq5) == "Game(3 players, 2x2x2)"
        assert eq5.__eq__("eq5") is NotImplemented
        assert eq5 != "eq5" and eq5 != 0

    def test_degenerate_game_ok(self):
        g = Game((1,), {(0,): (0,)})
        assert g.payoff((0,), 0) == 0
        assert g.expected_payoff(g.point((0,)), 0) == 0


_U2 = MixedStrategy.uniform(2)


class TestRefusals:
    # Each refusal of outside input, with its exact message, on eq5 where a game is needed.
    @pytest.mark.parametrize("call, error, message", [
        (lambda g: g.name_of((-1, 0, 0)), ValueError,
         "strategy index -1 of player 0 out of range [0, 2)"),
        (lambda g: g.point((True, 0, 0)), TypeError,
         "strategy index True of player 0 is not an integer"),
        (lambda g: g.payoff((1.0, 0, 0), 0), TypeError,
         "strategy index 1.0 of player 0 is not an integer"),
        (lambda g: MixedStrategy.uniform(0), ValueError,
         "a mixed strategy needs at least one pure strategy"),
        (lambda g: MixedStrategy(()), ValueError,
         "a mixed strategy needs at least one pure strategy"),
        (lambda g: g.uniform().replace(3, _U2), ValueError, "player 3 out of range [0, 3)"),
        (lambda g: g.uniform().replace(True, _U2), TypeError, "player True is not an integer"),
        (lambda g: g.payoff((0, 0, 0), True), TypeError, "player True is not an integer"),
        (lambda g: g.payoff((0, 0, 0), "1"), TypeError, "player '1' is not an integer"),
        (lambda g: g.payoff((0, 0, 0), 3), ValueError, "player 3 out of range [0, 3)"),
        (lambda g: g.own_by_complement(True), TypeError, "player True is not an integer"),
        (lambda g: g.expected_payoff(g.uniform(), True), TypeError,
         "player True is not an integer"),
        (lambda g: MixedStrategy.point(True, 2), TypeError, "strategy index True is not an integer"),
        (lambda g: MixedStrategy.point(2, 2), ValueError, "strategy index 2 out of range [0, 2)"),
        (lambda g: g.payoff(tuple(range(100000)), 0), ValueError,
         "profile (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, "
         "21, 2... has wrong length"),
        (lambda g: g.payoff((10**5000, 0, 0), 0), ValueError,
         "strategy index <int too long to print> of player 0 out of range [0, 2)"),
        (lambda g: g.payoff((0, 0, 0, 10**5000), 0), ValueError,
         "profile <tuple too long to print> has wrong length"),
        (lambda g: g.payoff((0, 0, 0), -10**5000), ValueError,
         "player <int too long to print> out of range [0, 3)"),
        (lambda g: Game((0,), {}), ValueError, "every player needs at least one strategy"),
        (lambda g: Game((1,), {(0,): [1]}, [["a", "b"]]), ValueError,
         "strategy_names shape does not match strategy_counts"),
        (lambda g: Game((1,), {(0,): [1], "x": [2], 5: [3]}), ValueError,
         "payoff table has entries for invalid profiles: ['x', 5]"),
        (lambda g: Game((1,), {(k,): [0] for k in range(3000)}), ValueError,
         "payoff table has entries for invalid profiles: [(1,), (2,), (3,), (4,), (5,)]"),
        (lambda g: is_berge(g, MixedProfile((MixedStrategy.uniform(3), _U2, _U2))), ValueError,
         "strategy of player 0 has length 3, expected 2"),
        (lambda g: rational([10**5000]), TypeError,
         "cannot read a rational from <list too long to print>"),
        (lambda g: g.payoff((0, 0, 0), [10**5000]), TypeError,
         "player <list too long to print> is not an integer"),
        (lambda g: Game(([10**5000],), {}), TypeError,
         "strategy counts must be integers, got <tuple too long to print>"),
        (lambda g: Game((1,), {(0,): [1], ((10**5000,),): [1]}), ValueError,
         "payoff table has entries for invalid profiles: [<tuple too long to print>]"),
        (lambda g: Game((1,), {(0,): [[10**5000]]}), TypeError,
         "profile [0], player 1: cannot read a rational from <list too long to print>"),
        (lambda g: Game((2,), {(0,): [1], (1,): [2]}, [["a", 3]]), TypeError,
         "strategy name 3 is not a string"),
        (lambda g: Game((1,), {(0,): [1]}, [[[10**5000]]]), TypeError,
         "strategy name <list too long to print> is not a string"),
        (lambda g: MixedStrategy((Fraction(1, 3**8000), Fraction(1, 7**5000))), ValueError,
         "probabilities must sum to exactly 1, got <Fraction too long to print>"),
        (lambda g: Game((3,), {(0,): [1], (1,): [2], (2,): [3]}, ["abc"]), TypeError,
         "strategy names 'abc' are not a list or tuple"),
        (lambda g: Game((3,), {(0,): [1], (1,): [2], (2,): [3]}, [5]), TypeError,
         "strategy names 5 are not a list or tuple"),
        (lambda g: Game((1,), {(0,): [1]}, "a"), TypeError,
         "strategy names 'a' are not a list or tuple"),
        (lambda g: Game((1,), {(0,): [1]}, [10**5000]), TypeError,
         "strategy names <int too long to print> are not a list or tuple"),
        (lambda g: Game((2,), [[1], [2]]), TypeError, "payoff table must be a mapping, not list"),
        (lambda g: Game((2,), 5), TypeError, "payoff table must be a mapping, not int"),
        (lambda g: is_berge(g, MixedProfile(((1, 0), (0, 1), (1, 0)))), TypeError,
         "(1, 0) is not a MixedStrategy"),
        (lambda g: g.expected_payoff(((1, 0),) * 3, 0), TypeError,
         "((1, 0), (1, 0), (1, 0)) is not a MixedProfile"),
        (lambda g: best_support(g, 0, (1, 0)), TypeError, "(1, 0) is not a MixedStrategy"),
    ], ids=["name-of-negative-index", "bool-index", "float-index", "uniform-of-none",
            "empty-strategy", "replace-player-out-of-range", "replace-bool-player",
            "payoff-bool-player", "payoff-str-player", "payoff-player-out-of-range",
            "own-by-complement-bool-player", "expected-payoff-bool-player", "point-bool-index",
            "point-index-out-of-range", "long-profile-clipped", "huge-index",
            "long-profile-of-huge-index", "huge-player", "no-strategies",
            "names-of-wrong-shape", "unsortable-extra-keys", "many-extra-keys",
            "berge-check-of-wrong-length", "rational-of-list-of-huge-int",
            "player-list-of-huge-int", "counts-of-huge-int", "extra-key-of-huge-int",
            "payoff-list-of-huge-int", "name-not-a-string", "name-list-of-huge-int",
            "sum-of-huge-denominators", "names-entry-a-string", "names-entry-an-int",
            "names-a-string", "names-entry-huge-int", "table-a-list", "table-an-int",
            "profile-entry-not-a-strategy", "profile-not-a-profile",
            "best-support-of-a-tuple"])
    def test_exact_message(self, eq5, call, error, message):
        with pytest.raises(error) as exc:
            call(eq5)
        assert type(exc.value) is error and str(exc.value) == message


class TestPayoff:
    def test_eq5_entries(self, eq5):
        # (A1,B1,C1) and (A2,B2,C2)
        assert eq5.payoff((0, 0, 0), 0) == 2
        assert eq5.payoff((1, 1, 1), 2) == 2
        assert eq5.payoff_vector((0, 0, 0)) == (2, 1, 0)
        assert eq5.payoff_vector((1, 1, 1)) == (0, 1, 2)

    def test_out_of_range_errors(self, eq5):
        with pytest.raises(ValueError):
            eq5.payoff((0, 0, 2), 0)
        with pytest.raises(ValueError):
            eq5.payoff((0, 0, 0), 3)
        with pytest.raises(ValueError):
            eq5.payoff((0, 0), 0)


class TestExpectedPayoff:
    def test_eq5_uniform(self, eq5):
        assert eq5.expected_payoff(eq5.uniform(), 0) == 1

    def test_eq5_point_agrees_with_payoff(self, eq5):
        assert eq5.expected_payoff(eq5.point((0, 0, 0)), 1) == eq5.payoff((0, 0, 0), 1)

    def test_eq5_third_quarter(self, eq5):
        profile = MixedProfile((
            MixedStrategy((Fraction(1, 3), Fraction(2, 3))),
            half(),
            MixedStrategy((Fraction(1, 4), Fraction(3, 4))),
        ))
        # closed form for player 1 in eq5: q + r
        assert eq5.expected_payoff(profile, 0) == Fraction(3, 4)

    def test_wrong_shape_rejected(self, eq5):
        bad = MixedProfile((half(), half()))
        with pytest.raises(ValueError):
            eq5.expected_payoff(bad, 0)

    def test_matches_independent_sum_on_random_games(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_game(rng)
            profile = random_profile(rng, g)
            for i in range(g.player_count):
                assert g.expected_payoff(profile, i) == oracle_expected_payoff(g, profile, i)
        # Negative rationals with mixed denominators: the payoffs are stored
        # as ints over their lcm, and must come back as the exact inputs.
        for _ in range(30):
            counts, table = random_rational_table(rng, rng.randint(1, 3))
            g = Game(counts, table)
            profile = random_profile(rng, g)
            for i in range(g.player_count):
                assert g.expected_payoff(profile, i) == oracle_expected_payoff(g, profile, i)
            for pure, vec in table.items():
                assert g.payoff_vector(pure) == vec
                assert all(type(u) is Fraction for u in g.payoff_vector(pure))
                assert [g.payoff(pure, i) for i in range(len(vec))] == list(vec)
            assert parse_game(serialize_game(g)) == g

    def test_pure_consistency_random_games(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_game(rng)
            for pure in g.pure_profiles():
                for i in range(g.player_count):
                    assert g.expected_payoff(g.point(pure), i) == g.payoff(pure, i)


class TestReplace:
    def test_replace_pure(self, eq5):
        p = eq5.point((0, 0, 0)).replace(0, MixedStrategy.point(1, 2))
        assert p == eq5.point((1, 0, 0))

    def test_replace_in_uniform(self, eq5):
        p = eq5.uniform().replace(1, MixedStrategy.point(0, 2))
        assert p.strategies == (MixedStrategy.uniform(2), MixedStrategy.point(0, 2),
                                MixedStrategy.uniform(2))

    def test_replace_identical_is_identity(self, eq5):
        u = eq5.uniform()
        assert u.replace(2, MixedStrategy.uniform(2)) == u

    def test_replace_length_mismatch(self, eq5):
        with pytest.raises(ValueError):
            eq5.uniform().replace(0, MixedStrategy.uniform(3))


class TestMultilinearity:
    def test_affine_in_own_strategy(self):
        # U(lam*t + (1-lam)*t', rest) == lam*U(t, rest) + (1-lam)*U(t', rest)
        rng = random.Random(23)
        for _ in range(25):
            g = random_game(rng)
            profile = random_profile(rng, g)
            j = rng.randrange(g.player_count)
            m = g.strategy_counts[j]
            t, t2 = random_strategy(rng, m), random_strategy(rng, m)
            lam = Fraction(rng.randint(0, 8), 8)
            mix = MixedStrategy(tuple(lam * a + (1 - lam) * b
                                      for a, b in zip(t.probs, t2.probs)))
            for i in range(g.player_count):
                left = g.expected_payoff(profile.replace(j, mix), i)
                right = (lam * g.expected_payoff(profile.replace(j, t), i)
                         + (1 - lam) * g.expected_payoff(profile.replace(j, t2), i))
                assert left == right


class TestOwnByComplement:
    def test_matches_payoff_on_random_games(self):
        # Row a, entry c: the payoff at own strategy a and the c-th complement
        # in lexicographic order, over the common denominator.  Counts of 1
        # included, and 1-player games, whose only complement is ().
        rng = random.Random(11)
        shapes = [(1,), (3,), (1, 1), (2, 1), (1, 3), (1, 2, 1)]
        shapes += [tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4))) for _ in range(30)]
        for counts in shapes:
            table = {p: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in counts)
                     for p in itertools.product(*(range(m) for m in counts))}
            g = Game(counts, table)
            for i, m in enumerate(counts):
                rows, den = g.own_by_complement(i)
                co = [range(k) for j, k in enumerate(counts) if j != i]
                complements = list(itertools.product(*co))
                assert len(rows) == m
                for a, row in enumerate(rows):
                    assert len(row) == len(complements)
                    for u, c in zip(row, complements):
                        assert Fraction(u, den) == g.payoff(c[:i] + (a,) + c[i:], i)

    def test_player_out_of_range(self, eq5):
        for player in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                eq5.own_by_complement(player)
