"""Mixed-strategy Berge existence for own-payoff-independent 2x2x2 games,
plus an exact grid search over simplex grids for general small games.

In a 2x2x2 game in which no player can influence their own payoff, player
i's expected payoff is multilinear in the co-players' probabilities alone,
so its maximizers over the cube form the union of the faces all of whose
vertices are pure profiles where player i's payoff is their best.  The
graph of player i's best-support correspondence is therefore spanned by
that set of best pure profiles, and the meet of the three graphs by the
intersection of the three sets, the pure Berge equilibria: a mixed profile
is Berge exactly when every pure profile of its support box is.  Graphs and
meet are plain tuples of their maximal faces in a fixed order.  A nonempty
meet yields a witness that is re-verified, while an empty one yields a
coordinate conflict certificate where the graphs force one.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import equilibria
from .game import Game, MixedProfile, MixedStrategy, UnsupportedGameError

# A face of [0,1]^d: per coordinate either a fixed value 0/1 or None (free).
Face = tuple[Optional[int], ...]


def face_str(face: Face) -> str:
    return "(" + ",".join("*" if c is None else str(c) for c in face) + ")"


def face_contains(outer: Face, inner: Face) -> bool:
    """inner is a subface of outer."""
    return all(o is None or o == i for o, i in zip(outer, inner))


def _require_oi222(game: Game):
    if game.strategy_counts != (2, 2, 2):
        raise UnsupportedGameError(
            f"requires a 2x2x2 game, got shape {game.strategy_counts}")
    flags = equilibria.own_payoff_independent(game)
    for player, ok in enumerate(flags):
        if not ok:
            raise UnsupportedGameError(
                f"player {player + 1} can influence their own payoff")


# Every face of the cube with its vertices as pure profiles, in descending
# order of the key that reads a free coordinate as 2: coordinate 1 is
# strategy index 0, coordinate 0 is index 1, and a free coordinate takes
# both.  A face has a greater key than every face inside it.
_CUBE_FACES = tuple(
    (face, tuple(itertools.product(*((0, 1) if c is None else (1 - c,) for c in face))))
    for face in sorted(itertools.product((0, 1, None), repeat=3),
                       key=lambda f: tuple(2 if c is None else c for c in f), reverse=True))


def _faces_within(pure: set) -> tuple[Face, ...]:
    # The maximal faces of the cube whose vertices are all in `pure`, in
    # ascending key order.  Each face is seen before the faces inside it, so
    # skipping a face inside one already taken leaves only maximal faces.
    faces = []
    for face, vertices in _CUBE_FACES:
        if pure.issuperset(vertices) and not any(face_contains(f, face) for f in faces):
            faces.append(face)
    return tuple(reversed(faces))


def _best_profiles(game: Game) -> list[set]:
    # Per player, the pure profiles where their payoff is their best.
    _require_oi222(game)
    return [set(itertools.compress(game.pure_profiles(),
                                   game.attains_best(player, over_own=False)))
            for player in range(3)]


def best_support_graph_222(game: Game) -> tuple[tuple[Face, ...], ...]:
    """Per player, the graph of the best-support correspondence as its
    maximal faces of the cube, coordinates being each player's
    first-strategy probability: the faces spanned by the pure profiles where
    the player's payoff is their best."""
    return tuple(map(_faces_within, _best_profiles(game)))


@dataclass(frozen=True)
class CoordinateConflict:
    """A coordinate one player's graph forces to 0 while another forces
    it to 1; proof that the graphs cannot intersect."""

    coordinate: int
    player_forcing_zero: int
    player_forcing_one: int


@dataclass(frozen=True)
class ExistenceCertificate:
    exists: bool
    witness: Optional[MixedProfile]
    per_player_graphs: tuple[tuple[Face, ...], ...]
    conflict: Optional[CoordinateConflict]


def _witness_from_face(face: Face) -> MixedProfile:
    # Free coordinates completed with 1/2; coordinate = prob of strategy 0.
    strategies = []
    for c in face:
        x = Fraction(1, 2) if c is None else Fraction(c)
        strategies.append(MixedStrategy((x, 1 - x)))
    return MixedProfile(tuple(strategies))


def decide_berge_existence_oi222(game: Game) -> ExistenceCertificate:
    """Exact existence decision for own-payoff-independent 2x2x2 games:
    Berge equilibria are precisely the points common to the three
    best-support graphs, the faces spanned by the pure Berge equilibria."""
    best = _best_profiles(game)
    graphs = tuple(map(_faces_within, best))
    meet = _faces_within(set.intersection(*best))
    if meet:
        witness = _witness_from_face(meet[0])
        if not equilibria.is_berge(game, witness).is_equilibrium:
            raise RuntimeError("witness failed exact re-verification")
        return ExistenceCertificate(True, witness, graphs, None)
    conflict = None
    for coord in range(3):
        # Per player, the values the graph's faces give the coordinate:
        # {0} or {1} when the graph forces it.
        fixed = [{f[coord] for f in graph} for graph in graphs]
        if {0} in fixed and {1} in fixed:
            conflict = CoordinateConflict(coord, fixed.index({0}), fixed.index({1}))
            break
    return ExistenceCertificate(False, None, graphs, conflict)


def _grid_numerators(size: int, resolution: int) -> Iterator[tuple[int, ...]]:
    # Numerators over `resolution` of the simplex grid, lexicographic.
    for cuts in itertools.combinations(range(resolution + size - 1), size - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(resolution + size - 2 - prev)
        yield tuple(parts)


def simplex_grid(size: int, resolution: int) -> Iterator[tuple[Fraction, ...]]:
    """All probability vectors of length `size` whose entries are multiples
    of 1/resolution, lexicographic."""
    for parts in _grid_numerators(size, resolution):
        yield tuple(Fraction(p, resolution) for p in parts)


def grid_search_min_deficiency(game: Game, resolution: int,
                               top: int = 10) -> list[tuple[MixedProfile, Fraction]]:
    """Evaluate the Berge deficiency on the full simplex grid of step
    1/resolution per player, exactly; return the `top` best profiles in
    ascending deficiency (lexicographic tiebreak).  Any deficiency-0 result
    is a certified Berge equilibrium."""
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    if top < 1:
        raise ValueError("top must be a positive integer")
    counts, n, k = game.strategy_counts, game.player_count, resolution
    grids = [list(_grid_numerators(m, k)) for m in counts]
    total = math.prod(map(len, grids))
    if total > 10**7:
        warnings.warn(f"grid has {total} points; this will be slow", RuntimeWarning)

    def strategy(j, index):
        return MixedStrategy(tuple(Fraction(a, k) for a in grids[j][index]))

    # Payoffs and gaps are integers over `unit`.  Player i's best-support
    # value depends on their own grid point alone, so it is computed once per
    # point; its denominator divides `unit`, so it lifts to an int exactly.
    unit, walk = game.grid_payoffs(grids, k)
    tops = [[(equilibria.best_support(game, i, strategy(i, index)).value * unit).numerator
             for index in range(len(grids[i]))]
            for i in range(n)]
    gaps = ((max(tops[i][index] - u for i, (index, u) in enumerate(zip(indices, payoffs))),
             indices)
            for indices, payoffs in walk)
    # Grid indices order the profiles as their probability vectors do.
    return [(MixedProfile(tuple(strategy(j, index) for j, index in enumerate(indices))),
             Fraction(gap, unit))
            for gap, indices in heapq.nsmallest(top, gaps)]
