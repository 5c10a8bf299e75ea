"""Mixed-strategy Berge existence for own-payoff-independent games of every
shape, plus an exact grid search over simplex grids for general small games.

If no player can influence their own payoff, a mixed profile makes the
co-players best for player i exactly when every pure profile of its support
box pays player i their best.  A box is one nonempty set of strategies per
player; its pure profiles are their product.  Player i's best-support graph
is the union of the boxes all of whose pure profiles pay i their best, and
the meet of the graphs, the Berge set, that of the boxes all of whose pure
profiles are pure Berge: mixed Berge exists iff pure Berge does.  Graphs and
meet are tuples of their maximal boxes in a fixed order.  A nonempty meet
yields a re-verified witness, and an empty one a dominance fact per box.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import equilibria
from .game import Game, MixedProfile, MixedStrategy, UnsupportedGameError, _clip

# One nonempty ascending tuple of strategy indices per player.
Box = tuple[tuple[int, ...], ...]

# The most boxes a game may have, prod(2^m_j - 1) over its strategy counts.
MAX_BOXES = 4096


@functools.lru_cache(maxsize=8)
def _boxes(counts: tuple[int, ...]) -> tuple[tuple[Box, frozenset], ...]:
    # Every box of this shape with the positions of its pure profiles in
    # `Game.pure_profiles()` (ints, not tuples as long as the player count),
    # by descending key: each player's set read as a bitmask, strategy 0 the
    # high bit, compared lexicographically.  A box has a greater key than
    # every box inside it.
    sets = [[tuple(i for i in range(m) if mask >> (m - 1 - i) & 1)
             for mask in range(2 ** m - 1, 0, -1)] for m in counts]
    strides = [math.prod(counts[j + 1:]) for j in range(len(counts))]
    table = []
    for box in itertools.product(*sets):
        offsets = ([i * d for i in s] for s, d in zip(box, strides))
        table.append((box, frozenset(map(sum, itertools.product(*offsets)))))
    return tuple(table)


def _boxes_within(counts: tuple[int, ...], pure: set) -> tuple[Box, ...]:
    # The maximal boxes all of whose pure profiles have their positions in
    # `pure`, in ascending key order.  Each box is seen before the boxes inside it, so
    # skipping a box inside one already taken leaves only maximal boxes.
    boxes, taken = [], []
    for box, vertices in _boxes(counts):
        if vertices <= pure and not any(vertices <= t for t in taken):
            boxes.append(box)
            taken.append(vertices)
    return tuple(reversed(boxes))


def _best_profiles(game: Game) -> list[set]:
    # Per player, the positions of the pure profiles where their payoff is
    # their best, for an OI game within the box cap, checked first.
    if math.prod(2 ** m - 1 for m in game.strategy_counts) > MAX_BOXES:
        raise UnsupportedGameError(f"shape {game.strategy_counts} has more than "
                                   f"{MAX_BOXES} boxes of strategy sets")
    for player, ok in enumerate(equilibria.own_payoff_independent(game)):
        if not ok:
            raise UnsupportedGameError(f"player {player + 1} can influence their own payoff")
    return [set(itertools.compress(itertools.count(),
                                   game.attains_best(player, over_own=False)))
            for player in range(game.player_count)]


@dataclass(frozen=True)
class ExistenceCertificate:
    """Exists: a `witness` re-verified by `is_berge`, and `cover` is ().
    Not-exists: per box, in ascending key order, a fact (box, player, c, c2):
    `c`, a complement (co-players' strategies) from the box, pays the player
    less than their best complement `c2` under each own strategy in the box.
    At a mixed profile supported on the box `c` has positive probability, so
    moving it to `c2` pays the player more: in any game, no point there is Berge."""

    exists: bool
    witness: Optional[MixedProfile]
    per_player_graphs: tuple[tuple[Box, ...], ...]
    cover: tuple[tuple[Box, int, tuple[int, ...], tuple[int, ...]], ...]


def decide_berge_existence_oi222(game: Game) -> ExistenceCertificate:
    """Exact existence decision for own-payoff-independent games of every
    shape within `MAX_BOXES`: the Berge equilibria, the points common to the
    best-support graphs, are the boxes spanned by the pure Berge equilibria."""
    counts = game.strategy_counts
    best = _best_profiles(game)
    graphs = tuple(_boxes_within(counts, b) for b in best)
    meet = _boxes_within(counts, set.intersection(*best))
    if meet:
        # Each player uniform over their set of the first box.
        witness = MixedProfile(tuple(
            MixedStrategy(tuple(Fraction(int(i in s), len(s)) for i in range(m)))
            for s, m in zip(meet[0], counts)))
        if not equilibria.is_berge(game, witness).is_equilibrium:
            raise RuntimeError("witness failed exact re-verification")
        return ExistenceCertificate(True, witness, graphs, ())
    # The meet is empty: each box has a pure profile off some player's best set, whose
    # complement pays that player less than the complement of their first best profile.
    pure = list(game.pure_profiles())
    cover = []
    for box, vertices in reversed(_boxes(counts)):
        player, b = next((i, b) for i, b in enumerate(best) if not vertices <= b)
        c, c2 = pure[min(vertices - b)], pure[min(b)]
        cover.append((box, player, c[:player] + c[player + 1:], c2[:player] + c2[player + 1:]))
    return ExistenceCertificate(False, None, graphs, tuple(cover))


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
    is a certified Berge equilibrium.  A non-int `resolution` or `top` is a
    TypeError; a grid of more than 10^7 points, a ValueError before any is listed."""
    for value, label in ((resolution, "resolution"), (top, "top")):
        if type(value) is not int:
            raise TypeError(f"{label} {_clip(value)} is not an integer")
        if value < 1:
            raise ValueError(f"{label} must be a positive integer")
    counts, n, k = game.strategy_counts, game.player_count, resolution
    # Player j's grid has comb(k + m_j - 1, m_j - 1) points: counted before any is listed.
    if math.prod(math.comb(k + m - 1, m - 1) for m in counts) > 10**7:
        raise ValueError(f"grid has more than {10**7} points; lower the resolution")
    grids = [list(_grid_numerators(m, k)) for m in counts]

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
