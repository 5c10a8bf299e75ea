"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (Fraction equality, zero tolerance).  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
from fractions import Fraction

from bergegames import (MixedProfile, MixedStrategy,
                        best_support, builtin_game, constant_sum,
                        decide_berge_existence_oi222,
                        enumerate_pure_berge, enumerate_pure_nash,
                        grid_search_min_deficiency, is_berge, is_nash,
                        is_pareto_optimal_pure, own_payoff_independent,
                        serialize_game, swap_payoffs_2p)
from bergegames.cli import main as cli_main

from conftest import (oracle_pure_berge, oracle_pure_nash, random_game,
                      random_profile, random_strategy)


def report(number, description, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _write_builtin(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_game(builtin_game(name)))
    return str(path)


def test_criterion_1_no_pure_berge(tmp_path, capsys, eq5):
    code = cli_main(["pure-berge", _write_builtin(tmp_path, "eq5")])
    out = capsys.readouterr().out
    ok = (code == 0 and out.strip() == "count: 0"
          and enumerate_pure_berge(eq5) == [])
    report(1, "eq5 has no pure Berge equilibrium (all 8 profiles)", ok)


def test_criterion_2_no_mixed_berge(tmp_path, capsys, eq5):
    code = cli_main(["decide-berge", _write_builtin(tmp_path, "eq5")])
    out = capsys.readouterr().out
    cert = decide_berge_existence_oi222(eq5)
    graphs = cert.per_player_graphs
    graphs_ok = graphs == ((((0, 1), (0,), (0,)),), (((0,), (0, 1), (1,)),),
                           (((1,), (1,), (0, 1)),))
    # Player 3's graph restricts p to strategy 2 (p = 0), player 2's to
    # strategy 1 (p = 1): the printed graphs cannot meet.
    conflict_ok = out.endswith(
        "conflict: coordinate p is fixed to 0 by player 3 and to 1 by player 2\n")
    # Each of the 27 support boxes is refuted by a fact: a complement c from
    # the box pays the player less than c2 under each of their strategies in it.
    boxes = list(itertools.product(*[[(0,), (1,), (0, 1)]] * 3))
    cover_ok = sorted(fact[0] for fact in cert.cover) == sorted(boxes) and all(
        all(x in s for x, s in zip(c, box[:i] + box[i + 1:]))
        and all(eq5.payoff(c[:i] + (a,) + c[i:], i) < eq5.payoff(c2[:i] + (a,) + c2[i:], i)
                for a in box[i])
        for box, i, c, c2 in cert.cover)
    ok = (code == 3 and "outcome: not-exists" in out
          and not cert.exists and graphs_ok and conflict_ok and cover_ok)
    report(2, "decide-berge(eq5): not-exists, graphs are the three cube edges, "
              "coordinate conflict line, a refuting fact for each of the 27 boxes", ok)


def test_criterion_3_unique_best_supports(eq5):
    expected = {0: (0, 0), 1: (0, 1), 2: (1, 1)}  # (B1,C1), (A1,C2), (A2,B2)
    rng = random.Random(2024)
    ok = True
    for player in range(3):
        strategies = [MixedStrategy.point(0, 2), MixedStrategy.point(1, 2)]
        strategies += [random_strategy(rng, 2) for _ in range(23)]
        for s in strategies:
            result = best_support(eq5, player, s)
            if result.value != 2 or result.supports != (expected[player],):
                ok = False
    report(3, "eq5 best supports: value 2 with unique supports (B1,C1), "
              "(A1,C2), (A2,B2) over 25 strategies per player", ok)


def test_criterion_4_all_nash(eq5):
    rng = random.Random(2025)
    ok = all(is_nash(eq5, eq5.point(p)).is_equilibrium for p in eq5.pure_profiles())
    for _ in range(100):
        ok = ok and is_nash(eq5, random_profile(rng, eq5)).is_equilibrium
    report(4, "eq5: every pure profile and 100 random mixed profiles are Nash", ok)


def test_criterion_5_structure(eq5):
    ok = (constant_sum(eq5) == 3
          and own_payoff_independent(eq5) == (True, True, True)
          and all(is_pareto_optimal_pure(eq5, p) for p in eq5.pure_profiles()))
    report(5, "eq5: constant sum 3, own-payoff independent, all pure profiles "
              "Pareto-optimal", ok)


def test_criterion_6_deficiency_floor(eq5):
    ok = True
    for k in (10, 20):
        results = grid_search_min_deficiency(eq5, k, top=1)
        if results[0][1] != 1:
            ok = False
    report(6, "eq5 grid search at k=10 and k=20: minimum deficiency exactly 1", ok)


def test_criterion_7_two_player_duality():
    rng = random.Random(2026)
    ok = True
    for _ in range(200):
        g = random_game(rng, players=2, max_strats=3)
        swapped = swap_payoffs_2p(g)
        if set(enumerate_pure_berge(g)) != set(enumerate_pure_nash(swapped)):
            ok = False
        for _ in range(20):
            profile = random_profile(rng, g)
            if (is_berge(g, profile).is_equilibrium
                    != is_nash(swapped, profile).is_equilibrium):
                ok = False
    report(7, "200 random 2-player games: pure Berge = pure Nash of the "
              "payoff-swapped game; mixed verdicts agree on 20 profiles each", ok)


def test_criterion_8_oracle_equivalence():
    rng = random.Random(2027)
    ok = True
    for _ in range(200):
        g = random_game(rng)
        for pure in g.pure_profiles():
            if is_nash(g, g.point(pure)).is_equilibrium != oracle_pure_nash(g, pure):
                ok = False
            if is_berge(g, g.point(pure)).is_equilibrium != oracle_pure_berge(g, pure):
                ok = False
    report(8, "200 random games (n<=3, m<=3): is_nash/is_berge at every pure "
              "profile match the brute-force inequality oracle", ok)


def test_criterion_9_vertex_attainment():
    rng = random.Random(2028)
    ok = True
    for _ in range(100):
        g = random_game(rng)
        i = rng.randrange(g.player_count)
        s = random_strategy(rng, g.strategy_counts[i])
        cap = best_support(g, i, s).value
        for _ in range(20):
            profile = random_profile(rng, g).replace(i, s)
            if g.expected_payoff(profile, i) > cap:
                ok = False
    report(9, "100 random games, 20 random product complements each: no mixed "
              "complement exceeds the pure best-support value", ok)


def test_criterion_10_positive_control(tmp_path, capsys, sumgame222):
    code = cli_main(["decide-berge", _write_builtin(tmp_path, "sumgame222")])
    out = capsys.readouterr().out
    cert = decide_berge_existence_oi222(sumgame222)
    ok = (code == 0 and "outcome: exists" in out and cert.exists
          and is_berge(sumgame222, cert.witness).deficiency == 0)
    report(10, "decide-berge(sumgame222): exists, witness certified at "
               "deficiency 0", ok)
