import heapq
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from bergegames import (Game, MixedProfile, MixedStrategy,
                        UnsupportedGameError, berge_deficiency, best_support,
                        best_support_graph_222, decide_berge_existence_oi222,
                        enumerate_pure_berge, equilibria, grid_search_min_deficiency,
                        is_berge, simplex_grid)
from bergegames.search import _faces_within, face_contains

from conftest import random_game, random_rational_table


def F(x, y=1):
    return Fraction(x, y)


class TestFaces:
    def test_contains(self):
        assert face_contains((None, 1, None), (0, 1, 1))
        assert not face_contains((0, 1, 1), (None, 1, None))


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


class TestBestSupportGraph:
    @pytest.mark.parametrize("form, value, faces", [
        (_bilinear(0, 1, 1, 0), 2, [(None, 1, 1)]),
        (_bilinear(0, 1, 0, 0), 1, [(None, 1, None)]),
        (_bilinear(1, -1, -1, 0), 0, [(None, 0, 0)]),
        (_bilinear(0, 0, 0, 5), 5, [(None, None, None)]),
    ], ids=["sum", "q_only", "saddle", "constant"])
    def test_player1_faces_of_form(self, form, value, faces):
        # Player 1's payoff at the co-player corners is the bilinear form in
        # (q, r), the first-strategy probabilities of players 2 and 3.
        game = _oi_game([form, _bilinear(0, 0, 0, 0), _bilinear(0, 0, 0, 0)])
        graph = best_support_graph_222(game)[0]
        assert graph == tuple(faces)
        for own in (MixedStrategy((1, 0)), MixedStrategy((F(1, 3), F(2, 3)))):
            assert best_support(game, 0, own).value == value

    def test_eq5_edges(self, eq5):
        g1, g2, g3 = best_support_graph_222(eq5)
        assert g1 == ((None, 1, 1),)
        assert g2 == ((1, None, 0),)
        assert g3 == ((0, 0, None),)

    def test_zero_game_full_cube(self, zero222):
        for graph in best_support_graph_222(zero222):
            assert graph == ((None, None, None),)

    def test_rejects_wrong_shape(self, pd):
        with pytest.raises(UnsupportedGameError):
            best_support_graph_222(pd)

    def test_rejects_own_dependent_player(self):
        table = {p: (p[0], 0, 0) for p in
                 [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]}
        g = Game((2, 2, 2), table)
        with pytest.raises(UnsupportedGameError, match="player 1"):
            best_support_graph_222(g)

    def test_graph_points_have_zero_gap(self, eq5, sumgame222):
        # every point of player i's graph on the grid of step 1/4 makes the
        # complement a best support to player i's strategy
        ticks = [F(t, 4) for t in range(5)]
        for game in (eq5, sumgame222):
            graphs = best_support_graph_222(game)
            for i, graph in enumerate(graphs):
                for face in graph:
                    for point in itertools.product(*(ticks if c is None else [F(c)]
                                                     for c in face)):
                        profile = _profile_from_coords(point)
                        realized = game.expected_payoff(profile, i)
                        assert realized == best_support(game, i, profile[i]).value


def _profile_from_coords(coords):
    from bergegames import MixedProfile, MixedStrategy
    return MixedProfile(tuple(MixedStrategy((x, 1 - x)) for x in coords))


class TestDecideExistence:
    def test_eq5_not_exists(self, eq5):
        cert = decide_berge_existence_oi222(eq5)
        assert not cert.exists
        assert cert.witness is None
        assert cert.conflict is not None
        # the named coordinate really is forced to opposite values
        c = cert.conflict
        zero_graph = cert.per_player_graphs[c.player_forcing_zero]
        one_graph = cert.per_player_graphs[c.player_forcing_one]
        assert {f[c.coordinate] for f in zero_graph} == {0}
        assert {f[c.coordinate] for f in one_graph} == {1}

    def test_sumgame_exists(self, sumgame222):
        cert = decide_berge_existence_oi222(sumgame222)
        assert cert.exists
        assert is_berge(sumgame222, cert.witness).deficiency == 0
        assert [s.probs for s in cert.witness.strategies] == [(1, 0)] * 3

    def test_zero_game_exists(self, zero222):
        cert = decide_berge_existence_oi222(zero222)
        assert cert.exists
        assert is_berge(zero222, cert.witness).is_equilibrium


def _on_face(face, point):
    return all(c is None or c == x for c, x in zip(face, point))


def _key(face):
    return tuple(2 if c is None else c for c in face)


def _maximal_faces(vertices):
    # Every face of the cube whose corners all lie in `vertices` (coordinate
    # 1 is strategy index 0), keeping those inside no other, by ascending key.
    faces = [face for face in itertools.product((0, 1, None), repeat=3)
             if all(corner in vertices for corner in
                    itertools.product(*((0, 1) if c is None else (1 - c,) for c in face)))]
    return sorted((f for f in faces
                   if not any(g != f and face_contains(g, f) for g in faces)), key=_key)


class TestRandomOIGames:
    def test_graphs_and_decision_match_direct_checks(self):
        # Checked against best_support, expected_payoff and berge_deficiency
        # at the 27 points of {0, 1/2, 1}^3, never against the face code.
        # Small payoffs make ties common.
        rng = random.Random(89)
        points = list(itertools.product((F(0), F(1, 2), F(1)), repeat=3))
        for _ in range(200):
            corners = [{c: F(rng.choice((-1, 0, 1)), rng.choice((1, 2)))
                        for c in itertools.product((0, 1), repeat=2)} for _ in range(3)]
            game = _oi_game([lambda x, y, t=t: t[x, y] for t in corners])
            graphs = best_support_graph_222(game)
            for point in points:
                profile = _profile_from_coords(point)
                for i, graph in enumerate(graphs):
                    best = best_support(game, i, profile[i]).value
                    on_graph = any(_on_face(face, point) for face in graph)
                    assert on_graph == (game.expected_payoff(profile, i) == best)
            pure_berge = enumerate_pure_berge(game)
            meet = _faces_within(set(pure_berge))
            assert list(meet) == _maximal_faces(pure_berge)
            for faces in (*graphs, meet):
                # No face lies inside another, and keys strictly ascend.
                assert not any(g != f and face_contains(g, f) for f in faces for g in faces)
                assert all(_key(f) < _key(g) for f, g in zip(faces, faces[1:]))
            cert = decide_berge_existence_oi222(game)
            assert cert.per_player_graphs == graphs
            assert cert.exists == bool(pure_berge)
            assert cert.exists == any(berge_deficiency(game, _profile_from_coords(point)) == 0
                                      for point in points)
            if cert.exists:
                assert berge_deficiency(game, cert.witness) == 0
                assert _on_face(meet[0], [s.probs[0] for s in cert.witness.strategies])


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
            assert berge_deficiency(eq5, profile) == d

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
    # The grid search written directly: berge_deficiency at every profile of
    # the simplex grid, ranked by (deficiency, probabilities).
    grids = [list(simplex_grid(m, resolution)) for m in game.strategy_counts]
    entries = []
    for combo in itertools.product(*grids):
        profile = MixedProfile(tuple(MixedStrategy(probs) for probs in combo))
        entries.append((berge_deficiency(game, profile), combo, profile))
    best = heapq.nsmallest(top, entries, key=lambda e: (e[0], e[1]))
    return [(profile, deficiency) for deficiency, _, profile in best]


class TestGridFastPath:
    def test_matches_reference_on_random_rational_games(self):
        rng = random.Random(83)
        for _ in range(100):
            counts, table = random_rational_table(rng, rng.randint(1, 3))
            game = Game(counts, table)
            resolution = rng.randint(1, 3)
            everything = 10**6
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
