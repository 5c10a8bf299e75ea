import collections
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import bergegames
from bergegames import (MixedStrategy, UnsupportedGameError, best_own_deviation_value,
                        best_support, constant_sum, enumerate_pure_berge,
                        enumerate_pure_nash, is_berge, is_nash, is_pareto_optimal_pure,
                        own_payoff_independent, swap_payoffs_2p, Game)
from bergegames.game import profiles

from conftest import (oracle_constant_sum, oracle_own_payoff_independent,
                      oracle_pareto_optimal_pure, oracle_pure_berge, oracle_pure_nash,
                      random_game, random_profile, random_strategy, random_structure_game)


def test_inconsistent_verdict_rejected_under_optimize():
    # The consistency check must survive `python -O`, which strips asserts.
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(bergegames.__file__)))
    code = ("from bergegames import EquilibriumVerdict\n"
            "try:\n"
            "    EquilibriumVerdict(True, 5, None)\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert result.returncode == 0


class TestBestOwnDeviation:
    def test_eq5_corner(self, eq5):
        assert best_own_deviation_value(eq5, eq5.point((0, 0, 0)), 0) == 2

    def test_eq5_uniform_player3(self, eq5):
        assert best_own_deviation_value(eq5, eq5.uniform(), 2) == 1

    def test_pd_defect_pays(self, pd):
        assert best_own_deviation_value(pd, pd.point((0, 0)), 0) == 5

    def test_bounds_random_mixed_deviations(self):
        # affinity: no mixed deviation beats the best pure one
        rng = random.Random(3)
        for _ in range(25):
            g = random_game(rng)
            profile = random_profile(rng, g)
            for i in range(g.player_count):
                cap = best_own_deviation_value(g, profile, i)
                for _ in range(5):
                    t = random_strategy(rng, g.strategy_counts[i])
                    assert g.expected_payoff(profile.replace(i, t), i) <= cap


class TestIsNash:
    def test_eq5_pure_profiles_all_nash(self, eq5):
        for pure in eq5.pure_profiles():
            assert is_nash(eq5, eq5.point(pure)).is_equilibrium

    def test_eq5_random_mixed_all_nash(self, eq5):
        rng = random.Random(5)
        for _ in range(30):
            assert is_nash(eq5, random_profile(rng, eq5)).is_equilibrium

    def test_pd_cooperate_is_not_nash(self, pd):
        verdict = is_nash(pd, pd.point((0, 0)))
        assert not verdict.is_equilibrium
        assert verdict.deficiency == 2
        assert verdict.worst_witness == (0, 1)  # player 1 deviating to D


class TestBestSupport:
    @pytest.mark.parametrize("player,support", [(0, (0, 0)), (1, (0, 1)), (2, (1, 1))])
    def test_eq5_unique_supports(self, eq5, player, support):
        rng = random.Random(17 + player)
        strategies = [MixedStrategy.point(0, 2), MixedStrategy.point(1, 2),
                      MixedStrategy.uniform(2)]
        strategies += [random_strategy(rng, 2) for _ in range(5)]
        for s in strategies:
            result = best_support(eq5, player, s)
            assert result.value == 2
            assert result.supports == (support,)

    @pytest.mark.parametrize("player, size, error, message", [
        (5, 2, ValueError, "player 5 out of range [0, 3)"),
        (True, 2, TypeError, "player True is not an integer"),
        (0, 3, ValueError, "strategy does not match the player's strategy count"),
    ], ids=["player-out-of-range", "bool-player", "wrong-length-strategy"])
    def test_refusals(self, eq5, player, size, error, message):
        with pytest.raises(error) as exc:
            best_support(eq5, player, MixedStrategy.uniform(size))
        assert type(exc.value) is error and str(exc.value) == message

    def test_supports_attain_and_nothing_exceeds(self):
        rng = random.Random(29)
        import itertools
        for _ in range(20):
            g = random_game(rng)
            i = rng.randrange(g.player_count)
            s = random_strategy(rng, g.strategy_counts[i])
            result = best_support(g, i, s)
            co_ranges = [range(m) for j, m in enumerate(g.strategy_counts) if j != i]
            for complement in itertools.product(*co_ranges):
                full = list(complement)
                full.insert(i, 0)
                value = sum(p * g.payoff(tuple(full[:i]) + (own,) + tuple(full[i + 1:]), i)
                            for own, p in enumerate(s.probs))
                if complement in result.supports:
                    assert value == result.value
                else:
                    assert value < result.value


class TestIsBerge:
    def test_eq5_no_pure_berge(self, eq5):
        for pure in eq5.pure_profiles():
            assert not is_berge(eq5, eq5.point(pure)).is_equilibrium

    def test_pd_cooperate_is_berge(self, pd):
        verdict = is_berge(pd, pd.point((0, 0)))
        assert verdict.is_equilibrium
        assert verdict.deficiency == 0

    def test_eq5_uniform_deficiency_one(self, eq5):
        verdict = is_berge(eq5, eq5.uniform())
        assert not verdict.is_equilibrium
        assert verdict.deficiency == 1

    def test_eq5_corner_deficiency(self, eq5):
        verdict = is_berge(eq5, eq5.point((0, 0, 0)))
        assert verdict.deficiency == 2
        player, complement = verdict.worst_witness
        assert player == 2 and complement == (1, 1)

    def test_reformulation_equivalence(self):
        # Berge iff every player's realized payoff equals the best-support value
        rng = random.Random(31)
        for _ in range(30):
            g = random_game(rng)
            profile = random_profile(rng, g)
            verdict = is_berge(g, profile)
            attains = all(
                g.expected_payoff(profile, i) == best_support(g, i, profile[i]).value
                for i in range(g.player_count))
            assert verdict.is_equilibrium == attains


class TestVertexAttainment:
    def test_mixed_complements_never_exceed_pure_best(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_game(rng)
            i = rng.randrange(g.player_count)
            s = random_strategy(rng, g.strategy_counts[i])
            cap = best_support(g, i, s).value
            for _ in range(5):
                profile = random_profile(rng, g).replace(i, s)
                assert g.expected_payoff(profile, i) <= cap


class TestEnumeration:
    def test_eq5(self, eq5):
        assert enumerate_pure_nash(eq5) == list(eq5.pure_profiles())
        assert enumerate_pure_berge(eq5) == []

    def test_pd(self, pd):
        assert enumerate_pure_nash(pd) == [(1, 1)]
        assert enumerate_pure_berge(pd) == [(0, 0)]

    def test_one_by_one(self):
        g = Game((1,), {(0,): (0,)})
        assert enumerate_pure_nash(g) == [(0,)]
        assert enumerate_pure_berge(g) == [(0,)]

    def test_matches_oracle_on_random_games(self):
        rng = random.Random(41)
        games = [random_game(rng) for _ in range(60)]
        for g in games:
            for pure in g.pure_profiles():
                assert is_nash(g, g.point(pure)).is_equilibrium == oracle_pure_nash(g, pure)
                assert is_berge(g, g.point(pure)).is_equilibrium == oracle_pure_berge(g, pure)
        # Heavily tied 4-player games, like the benchmark's enumeration inputs.
        games += [random_game(rng, players=4, lo=0, hi=2) for _ in range(20)]
        for g in games:
            assert enumerate_pure_nash(g) == [p for p in g.pure_profiles()
                                              if oracle_pure_nash(g, p)]
            assert enumerate_pure_berge(g) == [p for p in g.pure_profiles()
                                               if oracle_pure_berge(g, p)]


class TestStructure:
    def test_constant_sum(self, eq5, pd, zero222):
        assert constant_sum(eq5) == 3
        assert constant_sum(pd) is None
        assert constant_sum(zero222) == 0

    def test_own_payoff_independent(self, eq5, pd, zero222):
        assert own_payoff_independent(eq5) == (True, True, True)
        assert own_payoff_independent(pd) == (False, False)
        assert own_payoff_independent(zero222) == (True, True, True)

    def test_own_independent_implies_all_nash(self):
        rng = random.Random(43)
        checked = 0
        while checked < 10:
            g = random_game(rng, players=2, max_strats=2, lo=0, hi=1)
            if not all(own_payoff_independent(g)):
                continue
            checked += 1
            for pure in g.pure_profiles():
                assert is_nash(g, g.point(pure)).is_equilibrium
            for _ in range(5):
                assert is_nash(g, random_profile(rng, g)).is_equilibrium

    def test_pareto(self, eq5, pd):
        for pure in eq5.pure_profiles():
            assert is_pareto_optimal_pure(eq5, pure)
        assert not is_pareto_optimal_pure(pd, (1, 1))
        assert is_pareto_optimal_pure(pd, (0, 0))
        g = Game((1,), {(0,): (0,)})
        assert is_pareto_optimal_pure(g, (0,))

    def test_constant_sum_implies_pure_pareto(self):
        rng = random.Random(47)
        for _ in range(40):
            g = random_game(rng)
            if constant_sum(g) is not None:
                for pure in g.pure_profiles():
                    assert is_pareto_optimal_pure(g, pure)


class TestStructureOracles:
    # The structure checks work on the stored ints; the oracles read Fractions
    # through Game.payoff one profile at a time.
    def test_own_payoff_independent(self):
        rng = random.Random(1701)
        seen = collections.Counter()
        for _ in range(600):
            g = random_structure_game(rng)
            flags = own_payoff_independent(g)
            assert flags == oracle_own_payoff_independent(g), g
            seen[all(flags), g.player_count, 1 in g.strategy_counts] += 1
        assert sum(v for (oi, _, _), v in seen.items() if oi) >= 100
        assert sum(v for (oi, _, _), v in seen.items() if not oi) >= 100
        assert {players for _, players, _ in seen} == {1, 2, 3, 4}
        assert sum(v for (_, _, single), v in seen.items() if single) >= 100

    def test_constant_sum_and_pareto(self):
        rng = random.Random(1702)
        constant = 0
        for _ in range(300):
            counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            total = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            table = {}
            for p in profiles(counts):
                vec = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in counts]
                vec[-1] = total - sum(vec[:-1])
                table[p] = vec
            if rng.random() < 0.5:   # one payoff moved: no longer constant-sum
                table[rng.choice(list(table))][rng.randrange(len(counts))] += Fraction(1, 7)
            g = Game(counts, table)
            assert constant_sum(g) == oracle_constant_sum(g)
            constant += constant_sum(g) is not None
            for pure in itertools.islice(g.pure_profiles(), 0, None, 3):
                assert is_pareto_optimal_pure(g, pure) == oracle_pareto_optimal_pure(g, pure)
        assert 100 <= constant <= 200
        for _ in range(100):
            g = random_structure_game(rng)
            assert constant_sum(g) == oracle_constant_sum(g)
            for pure in g.pure_profiles():
                assert is_pareto_optimal_pure(g, pure) == oracle_pareto_optimal_pure(g, pure)

    def test_pareto_validates_the_profile(self, pd):
        with pytest.raises(ValueError, match="out of range"):
            is_pareto_optimal_pure(pd, (0, 2))


class TestSwap2p:
    def test_pd_swap(self, pd):
        swapped = swap_payoffs_2p(pd)
        assert swapped.payoff_vector((0, 1)) == (5, 0)
        assert swapped.payoff_vector((1, 0)) == (0, 5)

    def test_symmetric_fixed_point(self):
        g = Game((2, 2), {p: (p[0] + p[1], p[0] + p[1])
                          for p in [(0, 0), (0, 1), (1, 0), (1, 1)]})
        assert swap_payoffs_2p(g) == g

    def test_involution(self, pd):
        assert swap_payoffs_2p(swap_payoffs_2p(pd)) == pd

    def test_wrong_player_count(self, eq5):
        with pytest.raises(UnsupportedGameError):
            swap_payoffs_2p(eq5)

    def test_berge_nash_duality(self):
        rng = random.Random(53)
        for _ in range(40):
            g = random_game(rng, players=2)
            swapped = swap_payoffs_2p(g)
            assert set(enumerate_pure_berge(g)) == set(enumerate_pure_nash(swapped))
            for _ in range(5):
                profile = random_profile(rng, g)
                assert (is_berge(g, profile).is_equilibrium
                        == is_nash(swapped, profile).is_equilibrium)
