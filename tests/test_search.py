import heapq
import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from bergegames import (CoordinateConflict, Game, MixedProfile, MixedStrategy,
                        UnsupportedGameError, best_support, decide_berge_existence_oi222,
                        enumerate_pure_berge, equilibria, grid_search_min_deficiency,
                        is_berge, simplex_grid)
from bergegames import search
from bergegames.search import MAX_BOXES, _boxes_within

from conftest import oracle_pure_berge, random_game, random_rational_table


def F(x, y=1):
    return Fraction(x, y)


def _oi_game(forms):
    # The 2x2x2 game in which player i's payoff is forms[i](x, y), x and y
    # being the first-strategy indicators of the co-players in player order.
    table = {}
    for p in itertools.product((0, 1), repeat=3):
        table[p] = tuple(form(*(int(p[j] == 0) for j in range(3) if j != i))
                         for i, form in enumerate(forms))
    return Game((2, 2, 2), table)


def _bilinear(a, b, c, d):
    # f(q, r) = a*q*r + b*q + c*r + d at the corners of the unit square.
    return lambda q, r: a * q * r + b * q + c * r + d


# A box of a 2x2x2 game read in first-strategy probabilities: the set (0,)
# is the value 1, (1,) the value 0, and (0, 1) the free coordinate.
ONE, ZERO, FREE = (0,), (1,), (0, 1)


def _graphs(game):
    return decide_berge_existence_oi222(game).per_player_graphs


def _coords_222(box, ticks):
    # The points of a 2x2x2 box on a grid of first-strategy probabilities.
    return itertools.product(*(ticks if s == FREE else [F(1 - s[0])] for s in box))


class TestBestSupportGraph:
    @pytest.mark.parametrize("form, value, boxes", [
        (_bilinear(0, 1, 1, 0), 2, [(FREE, ONE, ONE)]),
        (_bilinear(0, 1, 0, 0), 1, [(FREE, ONE, FREE)]),
        (_bilinear(1, -1, -1, 0), 0, [(FREE, ZERO, ZERO)]),
        (_bilinear(0, 0, 0, 5), 5, [(FREE, FREE, FREE)]),
    ], ids=["sum", "q_only", "saddle", "constant"])
    def test_player1_faces_of_form(self, form, value, boxes):
        # Player 1's payoff at the co-player corners is the bilinear form in
        # (q, r), the first-strategy probabilities of players 2 and 3.
        game = _oi_game([form, _bilinear(0, 0, 0, 0), _bilinear(0, 0, 0, 0)])
        graph = _graphs(game)[0]
        assert graph == tuple(boxes)
        for own in (MixedStrategy((1, 0)), MixedStrategy((F(1, 3), F(2, 3)))):
            assert best_support(game, 0, own).value == value

    def test_eq5_edges(self, eq5):
        g1, g2, g3 = _graphs(eq5)
        assert g1 == (((0, 1), (0,), (0,)),)
        assert g2 == (((0,), (0, 1), (1,)),)
        assert g3 == (((1,), (1,), (0, 1)),)

    def test_zero_game_full_cube(self, zero222):
        for graph in _graphs(zero222):
            assert graph == ((FREE, FREE, FREE),)

    def test_rejects_wrong_shape(self):
        # Graphs are built for every shape within the box cap; 1 x 13 has
        # 2^13 - 1 = 8191 boxes, past it.
        game = Game((1, 13), {(0, j): (0, 0) for j in range(13)})
        with pytest.raises(UnsupportedGameError, match=f"shape \\(1, 13\\) has more than "
                                                       f"{MAX_BOXES} boxes"):
            _graphs(game)

    def test_rejects_own_dependent_player(self):
        table = {p: (p[0], 0, 0) for p in
                 [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]}
        g = Game((2, 2, 2), table)
        with pytest.raises(UnsupportedGameError, match="player 1"):
            _graphs(g)

    def test_graph_points_have_zero_gap(self, eq5, sumgame222):
        # every point of player i's graph on the grid of step 1/4 makes the
        # complement a best support to player i's strategy
        ticks = [F(t, 4) for t in range(5)]
        for game in (eq5, sumgame222):
            graphs = _graphs(game)
            for i, graph in enumerate(graphs):
                for box in graph:
                    for point in _coords_222(box, ticks):
                        profile = _profile_from_coords(point)
                        realized = game.expected_payoff(profile, i)
                        assert realized == best_support(game, i, profile[i]).value


def _profile_from_coords(coords):
    return MixedProfile(tuple(MixedStrategy((x, 1 - x)) for x in coords))


class TestDecideExistence:
    def test_eq5_not_exists(self, eq5):
        cert = decide_berge_existence_oi222(eq5)
        assert not cert.exists
        assert cert.witness is None
        # p is fixed to 0 by player 3's graph and to 1 by player 2's: each
        # named set is the union of that graph's sets for p, and they are
        # disjoint.
        c = cert.conflict
        assert c == CoordinateConflict(0, (2, 1), ((1,), (0,)))
        for k, s in zip(c.players, c.strategies):
            assert {i for box in cert.per_player_graphs[k] for i in box[c.coordinate]} == set(s)

    def test_sumgame_exists(self, sumgame222):
        cert = decide_berge_existence_oi222(sumgame222)
        assert cert.exists
        assert is_berge(sumgame222, cert.witness).deficiency == 0
        assert [s.probs for s in cert.witness.strategies] == [(1, 0)] * 3

    def test_zero_game_exists(self, zero222):
        cert = decide_berge_existence_oi222(zero222)
        assert cert.exists
        assert is_berge(zero222, cert.witness).is_equilibrium


def _key(box, counts):
    # Each player's set as a bitmask with strategy 0 as the high bit.
    return tuple(sum(1 << (m - 1 - i) for i in s) for s, m in zip(box, counts))


def _inside(inner, outer):
    return all(set(a) <= set(b) for a, b in zip(inner, outer))


def _maximal_boxes(counts, pure):
    # Every box whose pure profiles all lie in `pure`, keeping those inside
    # no other, by ascending key.
    sets = [[s for r in range(1, m + 1) for s in itertools.combinations(range(m), r)]
            for m in counts]
    boxes = [box for box in itertools.product(*sets)
             if all(p in pure for p in itertools.product(*box))]
    return sorted((b for b in boxes if not any(c != b and _inside(b, c) for c in boxes)),
                  key=lambda b: _key(b, counts))


def _positions(game, pure):
    # The positions of these pure profiles in game.pure_profiles().
    return {k for k, p in enumerate(game.pure_profiles()) if p in pure}


def _first_conflict(graphs):
    # The first player j, then the first pair of graphs (k, l), such that
    # the union of graph k's sets for j and that of graph l's are disjoint
    # and k's starts later; None if there is none.
    for j in range(len(graphs[0][0])):
        unions = [tuple(sorted({i for box in graph for i in box[j]})) for graph in graphs]
        for k, l in itertools.product(range(len(graphs)), repeat=2):
            a, b = unions[k], unions[l]
            if min(a) > min(b) and not set(a) & set(b):
                return CoordinateConflict(j, (k, l), (a, b))
    return None


class TestRandomOIGames:
    def test_graphs_and_decision_match_direct_checks(self):
        # Checked against best_support, expected_payoff and is_berge
        # at the 27 points of {0, 1/2, 1}^3, never against the box code.
        # Small payoffs make ties common.
        rng = random.Random(89)
        points = list(itertools.product((F(0), F(1, 2), F(1)), repeat=3))
        for _ in range(200):
            corners = [{c: F(rng.choice((-1, 0, 1)), rng.choice((1, 2)))
                        for c in itertools.product((0, 1), repeat=2)} for _ in range(3)]
            game = _oi_game([lambda x, y, t=t: t[x, y] for t in corners])
            cert = decide_berge_existence_oi222(game)
            graphs = cert.per_player_graphs
            for point in points:
                profile = _profile_from_coords(point)
                # The point's support box: strategy 0 iff x > 0, 1 iff x < 1.
                support = tuple(tuple(i for i, p in enumerate((x, 1 - x)) if p) for x in point)
                for i, graph in enumerate(graphs):
                    best = best_support(game, i, profile[i]).value
                    on_graph = any(_inside(support, box) for box in graph)
                    assert on_graph == (game.expected_payoff(profile, i) == best)
            pure_berge = enumerate_pure_berge(game)
            meet = _boxes_within((2, 2, 2), _positions(game, pure_berge))
            assert list(meet) == _maximal_boxes((2, 2, 2), set(pure_berge))
            assert cert.exists == bool(pure_berge)
            assert cert.exists == any(is_berge(game, _profile_from_coords(point)).deficiency == 0
                                      for point in points)
            if cert.exists:
                assert is_berge(game, cert.witness).deficiency == 0
                assert cert.conflict is None
                # Uniform on the meet's first box.
                assert cert.witness == MixedProfile(tuple(
                    MixedStrategy(tuple(F(int(i in s), len(s)) for i in range(2)))
                    for s in meet[0]))
            else:
                assert cert.conflict == _first_conflict(graphs)


def _oi_random_game(rng, counts):
    # An own-payoff-independent game: player i's payoff is drawn once per
    # complement, from a few values so that ties are common.
    n = len(counts)
    draws = [{} for _ in range(n)]
    table = {p: tuple(draws[i].setdefault(p[:i] + p[i + 1:], rng.choice((0, 0, 1, F(1, 2))))
                      for i in range(n))
             for p in itertools.product(*(range(m) for m in counts))}
    return Game(counts, table)


def _uniform_on(box, counts):
    return MixedProfile(tuple(MixedStrategy(tuple(F(int(i in s), len(s)) for i in range(m)))
                              for s, m in zip(box, counts)))


class TestOIShapes:
    @pytest.mark.parametrize("counts", [
        (2, 2), (3, 2), (4, 3), (2, 3, 2), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2),
        (1, 3, 2), (1, 1, 2, 2)], ids=lambda c: "x".join(map(str, c)))
    def test_decision_matches_pure_berge_and_brute_force_boxes(self, counts):
        # The Berge set of an OI game is the union of the boxes whose pure
        # profiles are all pure Berge: checked at the uniform point of every
        # box, and against boxes listed here by brute force.
        rng = random.Random("x".join(map(str, counts)))
        sets = [[s for r in range(1, m + 1) for s in itertools.combinations(range(m), r)]
                for m in counts]
        for _ in range(45):
            game = _oi_random_game(rng, counts)
            pure_berge = {p for p in game.pure_profiles() if oracle_pure_berge(game, p)}
            cert = decide_berge_existence_oi222(game)
            assert cert.exists == bool(enumerate_pure_berge(game))
            assert cert.exists == bool(pure_berge)
            if cert.exists:
                assert is_berge(game, cert.witness).deficiency == 0
            else:
                assert cert.conflict == _first_conflict(cert.per_player_graphs)
            for box in itertools.product(*sets):
                all_berge = all(p in pure_berge for p in itertools.product(*box))
                assert (is_berge(game, _uniform_on(box, counts)).deficiency == 0) == all_berge
            for i, graph in enumerate(cert.per_player_graphs):
                best = max(game.payoff(p, i) for p in game.pure_profiles())
                assert list(graph) == _maximal_boxes(
                    counts, {p for p in game.pure_profiles() if game.payoff(p, i) == best})
            assert (list(_boxes_within(counts, _positions(game, pure_berge)))
                    == _maximal_boxes(counts, pure_berge))


def _constant_game(counts):
    return Game(counts, {p: (0,) * len(counts)
                         for p in itertools.product(*(range(m) for m in counts))})


class TestBoxCap:
    @pytest.mark.parametrize("counts", [(13,), (5, 5, 5)], ids=["13", "5x5x5"])
    def test_refused_from_the_shape_before_any_scan(self, counts, monkeypatch):
        # Constant games are OI, so only the cap refuses them; neither the
        # own-payoff scan nor the box table may start.
        game = _constant_game(counts)

        def started(*_):
            raise AssertionError("work started before the cap check")
        monkeypatch.setattr(equilibria, "own_payoff_independent", started)
        monkeypatch.setattr(search, "_boxes", started)
        with pytest.raises(UnsupportedGameError, match=f"more than {MAX_BOXES} boxes"):
            decide_berge_existence_oi222(game)

    def test_just_under_the_cap(self):
        # 1 x (2^12 - 1) = 4095 boxes.  Player 1's payoff is best at player
        # 2's strategies 3 and 7; player 2's payoff is constant.
        game = Game((1, 12), {(0, j): (int(j in (3, 7)), 0) for j in range(12)})
        cert = decide_berge_existence_oi222(game)
        assert cert.exists
        assert cert.per_player_graphs == ((((0,), (3, 7)),), (((0,), tuple(range(12))),))
        assert [s.probs for s in cert.witness.strategies] == [
            (1,), tuple(F(int(i in (3, 7)), 2) for i in range(12))]


class TestGridSearch:
    def test_simplex_grid(self):
        assert list(simplex_grid(1, 3)) == [(1,)]
        pts = list(simplex_grid(2, 2))
        assert pts == [(0, 1), (F(1, 2), F(1, 2)), (1, 0)]
        assert all(sum(p) == 1 for p in simplex_grid(3, 4))
        assert len(list(simplex_grid(3, 4))) == 15

    def test_resolution_must_be_positive(self, eq5):
        with pytest.raises(ValueError):
            grid_search_min_deficiency(eq5, 0)

    @pytest.mark.parametrize("resolution, top, message", [
        (True, True, "resolution True is not an integer"),
        (2.0, 3, "resolution 2.0 is not an integer"),
        ("2", 3, "resolution '2' is not an integer"),
        (2, True, "top True is not an integer"),
        (2, 3.0, "top 3.0 is not an integer"),
        (2, None, "top None is not an integer"),
    ])
    def test_non_integers_refused(self, eq5, resolution, top, message):
        with pytest.raises(TypeError) as exc:
            grid_search_min_deficiency(eq5, resolution, top)
        assert str(exc.value) == message

    def test_top_must_be_positive(self, eq5):
        with pytest.raises(ValueError) as exc:
            grid_search_min_deficiency(eq5, 2, top=0)
        assert str(exc.value) == "top must be a positive integer"

    def test_oversized_grid_refused_before_listing(self, eq5, monkeypatch):
        # eq5 has k + 1 points per player: 10^15 at k = 10^5, 10^27 at 10^9.
        # A 2-strategy solo player has k + 1 points: 10^7 is allowed.
        class Listed(Exception):
            pass

        def listed(*_):
            raise Listed
        monkeypatch.setattr(search, "_grid_numerators", listed)
        start = time.perf_counter()
        for k in (10**5, 10**9):
            with pytest.raises(ValueError, match="grid has more than 10000000 points"):
                grid_search_min_deficiency(eq5, k)
        assert time.perf_counter() - start < 0.1
        solo = Game((2,), {(0,): (0,), (1,): (1,)})
        with pytest.raises(ValueError, match="more than 10000000 points"):
            grid_search_min_deficiency(solo, 10**7)
        with pytest.raises(Listed):
            grid_search_min_deficiency(solo, 10**7 - 1)

    def test_eq5_floor_is_one(self, eq5):
        results = grid_search_min_deficiency(eq5, 10, top=5)
        assert results[0][1] == 1
        assert all(d == 1 for _, d in results)

    def test_sumgame_finds_equilibrium_at_k1(self, sumgame222):
        results = grid_search_min_deficiency(sumgame222, 1, top=1)
        profile, deficiency = results[0]
        assert deficiency == 0
        assert [s.probs for s in profile.strategies] == [(1, 0)] * 3
        assert is_berge(sumgame222, profile).is_equilibrium

    def test_zero_game_all_zero(self, zero222):
        results = grid_search_min_deficiency(zero222, 2, top=27)
        assert all(d == 0 for _, d in results)

    def test_results_sorted_and_exact(self, eq5):
        results = grid_search_min_deficiency(eq5, 4, top=8)
        defs = [d for _, d in results]
        assert defs == sorted(defs)
        for profile, d in results:
            assert is_berge(eq5, profile).deficiency == d

    def test_pure_berge_subsumed_at_k1(self):
        rng = random.Random(67)
        for _ in range(15):
            g = random_game(rng, players=2, max_strats=2)
            zero_profiles = {tuple(tuple(s.probs) for s in p.strategies)
                             for p, d in grid_search_min_deficiency(g, 1, top=10)
                             if d == 0}
            for pure in enumerate_pure_berge(g):
                point = g.point(pure)
                key = tuple(tuple(s.probs) for s in point.strategies)
                assert key in zero_profiles


def _reference_grid(game, resolution, top):
    # The grid search written directly: is_berge at every profile of
    # the simplex grid, ranked by (deficiency, probabilities).
    grids = [list(simplex_grid(m, resolution)) for m in game.strategy_counts]
    entries = []
    for combo in itertools.product(*grids):
        profile = MixedProfile(tuple(MixedStrategy(probs) for probs in combo))
        entries.append((is_berge(game, profile).deficiency, combo, profile))
    best = heapq.nsmallest(top, entries, key=lambda e: (e[0], e[1]))
    return [(profile, deficiency) for deficiency, _, profile in best]


class TestGridFastPath:
    def test_matches_reference_on_random_rational_games(self):
        everything = 10**6
        rng = random.Random(83)
        for _ in range(100):
            counts, table = random_rational_table(rng, rng.randint(1, 3))
            game = Game(counts, table)
            resolution = rng.randint(1, 3)
            assert (grid_search_min_deficiency(game, resolution, top=everything)
                    == _reference_grid(game, resolution, everything))
        # 2x2x2x2 games, and 4-player games where some players have a single
        # strategy; rational payoffs, and payoffs in {0, 1}, whose many tied
        # deficiencies exercise the tiebreak.
        rng = random.Random(97)
        for k in range(60):
            counts = tuple(rng.randint(1, 2) for _ in range(4)) if k % 3 == 0 else (2, 2, 2, 2)
            draw = ((lambda: F(rng.randint(-12, 12), rng.randint(1, 12))) if k % 2
                    else (lambda: rng.randint(0, 1)))
            game = Game(counts, {p: tuple(draw() for _ in counts)
                                 for p in itertools.product(*map(range, counts))})
            resolution = rng.randint(1, 2)
            assert (grid_search_min_deficiency(game, resolution, top=everything)
                    == _reference_grid(game, resolution, everything))

    def test_best_support_values_hoisted(self, eq5, monkeypatch):
        expected = _reference_grid(eq5, 4, 10)
        calls = Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(equilibria, "best_support")
        counted(equilibria, "is_berge")
        counted(Game, "expected_payoff")
        assert grid_search_min_deficiency(eq5, 4) == expected
        own_points = sum(len(list(simplex_grid(m, 4))) for m in eq5.strategy_counts)
        assert calls["best_support"] <= own_points
        assert calls["is_berge"] == 0
        assert calls["expected_payoff"] == 0
