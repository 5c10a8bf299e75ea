"""Mixed-strategy Berge existence for own-payoff-independent 2x2x2 games,
plus an exact grid search over simplex grids for general small games.

In a 2x2x2 game in which no player can influence their own payoff, player
i's expected payoff is multilinear in the co-players' probabilities alone,
so its maximizers over the cube form the union of the faces all of whose
vertices are pure profiles where player i's payoff is their best.  The graph of player i's
best-support correspondence is therefore spanned by those best pure
profiles, and the meet of the three graphs by the pure Berge equilibria: a
mixed profile is Berge exactly when every pure profile of its support box is.
A nonempty meet yields a witness that is re-verified, while an empty one
yields a coordinate conflict certificate where the graphs force one.
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


@dataclass(frozen=True)
class FaceSet:
    """A deduplicated union of faces of [0,1]^dim; faces contained in other
    faces of the set are pruned."""

    dim: int
    faces: frozenset[Face]

    def __post_init__(self):
        faces = set()
        for f in self.faces:
            f = tuple(f)
            if len(f) != self.dim:
                raise ValueError(f"face {f} has wrong dimension, expected {self.dim}")
            faces.add(f)
        pruned = {f for f in faces
                  if not any(g != f and face_contains(g, f) for g in faces)}
        object.__setattr__(self, "faces", frozenset(pruned))

    def __bool__(self):
        return bool(self.faces)

    def forced_value(self, coordinate: int) -> Optional[int]:
        """The value every face of the set fixes `coordinate` to, if any."""
        values = {f[coordinate] for f in self.faces}
        if len(values) == 1:
            (v,) = values
            if v is not None:
                return v
        return None

    def sample_points(self, step: Fraction) -> Iterator[tuple[Fraction, ...]]:
        """Grid points of every face, free coordinates stepped by `step`."""
        ticks = []
        t = Fraction(0)
        while t < 1:
            ticks.append(t)
            t += step
        ticks.append(Fraction(1))
        for face in sorted(self.faces, key=lambda f: tuple(-1 if c is None else c for c in f)):
            axes = [[Fraction(c)] if c is not None else ticks for c in face]
            yield from itertools.product(*axes)

    def sorted_faces(self) -> list[Face]:
        return sorted(self.faces, key=lambda f: tuple(2 if c is None else c for c in f))


def _require_oi222(game: Game):
    if game.strategy_counts != (2, 2, 2):
        raise UnsupportedGameError(
            f"requires a 2x2x2 game, got shape {game.strategy_counts}")
    flags = equilibria.own_payoff_independent(game)
    for player, ok in enumerate(flags):
        if not ok:
            raise UnsupportedGameError(
                f"player {player + 1} can influence their own payoff")


# Every face of the cube with its vertices as pure profiles, larger faces
# first: coordinate 1 is strategy index 0, coordinate 0 is index 1, and a
# free coordinate takes both.
_CUBE_FACES = tuple(
    (face, tuple(itertools.product(*((0, 1) if c is None else (1 - c,) for c in face))))
    for face in sorted(itertools.product((0, 1, None), repeat=3),
                       key=lambda f: -f.count(None)))


def _faces_within(pure: set) -> FaceSet:
    # The faces of the cube whose vertices are all in `pure`.  Faces inside
    # one already taken are skipped here, so FaceSet has few left to prune.
    faces = []
    for face, vertices in _CUBE_FACES:
        if pure.issuperset(vertices) and not any(face_contains(f, face) for f in faces):
            faces.append(face)
    return FaceSet(3, frozenset(faces))


def best_support_graph_222(game: Game) -> tuple[FaceSet, FaceSet, FaceSet]:
    """Per player, the graph of the best-support correspondence as a union
    of faces of the cube, coordinates being each player's first-strategy
    probability: the faces spanned by the pure profiles where the player's
    payoff is their best."""
    _require_oi222(game)
    return tuple(_faces_within(set(itertools.compress(
                     game.pure_profiles(), game.attains_best(player, over_own=False))))
                 for player in range(3))


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
    per_player_graphs: tuple[FaceSet, FaceSet, FaceSet]
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
    graphs = best_support_graph_222(game)
    meet = _faces_within(set(equilibria.enumerate_pure_berge(game)))
    if meet:
        face = meet.sorted_faces()[0]
        witness = _witness_from_face(face)
        if not equilibria.is_berge(game, witness).is_equilibrium:
            raise RuntimeError("witness failed exact re-verification")
        return ExistenceCertificate(True, witness, graphs, None)
    conflict = None
    for coord in range(3):
        forced = [(p, graphs[p].forced_value(coord)) for p in range(3)]
        zeros = [p for p, v in forced if v == 0]
        ones = [p for p, v in forced if v == 1]
        if zeros and ones:
            conflict = CoordinateConflict(coord, zeros[0], ones[0])
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
