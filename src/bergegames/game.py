"""Finite normal-form games with exact rational payoffs.

Everything is exact: every payoff and probability from outside is read by
`rational` into a `fractions.Fraction`, so expected values, equilibrium
gaps, and all comparisons are certificates, never approximations.  Inside,
a game stores each player's payoffs once as a flat tuple of Python ints
over one common denominator (the lcm of all payoff denominators: at most
`digit_limit()` digits long, and the payoff count times its digits at most
`1000 * digit_limit()`), and mixed strategies enter as integer numerators
over their own common denominator; the kernel then needs no gcd until a
result leaves it as a `Fraction`.  Every mixed reduction reads player i's
payoffs as one matrix, own strategies by complements, that
`Game.own_by_complement(i)` builds on demand.  All objects are immutable
after construction and all operations are pure functions.

Conventions: players and strategies are 0-based; a pure profile is a tuple
of strategy indices, one per player; the payoff tensor is stored row-major
with the last player's index varying fastest.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

PureProfile = tuple[int, ...]


class UnsupportedGameError(Exception):
    """Raised when an operation does not apply to the given game shape."""


def profiles(counts: Sequence[int]) -> Iterator[PureProfile]:
    """All pure profiles for these per-player strategy counts, lexicographic
    (the last player's index varies fastest)."""
    return itertools.product(*(range(m) for m in counts))


def digit_limit() -> int:
    """The most decimal digits a numerator from outside, or the common
    denominator of a game's payoffs or a strategy's probabilities, may need:
    the interpreter's own int/str conversion limit, `sys.get_int_max_str_digits()`,
    or its default of 4300 where it is switched off or the interpreter predates it."""
    return getattr(sys, "get_int_max_str_digits", int)() or 4300   # int() is 0


def _too_long(k: int) -> bool:
    # Does k need more than digit_limit() digits?  Under 8**limit, told by its bits alone.
    return k.bit_length() > 3 * digit_limit() and abs(k) >= 10 ** digit_limit()


def _by_axis(values: Sequence, counts: Sequence[int], axis: int) -> list[Sequence]:
    # Per index on `axis` of a row-major tensor of shape `counts`, the entries there, in order.
    m, inner = counts[axis], math.prod(counts[axis + 1:])
    if m * inner == len(values):   # one block: each row is a slice
        return [values[a * inner:(a + 1) * inner] for a in range(m)]
    # Several blocks: entry t of row a recurs every m * inner values, one extended slice.
    rows = [[None] * (len(values) // m) for _ in range(m)]
    for a, row in enumerate(rows):
        for t in range(inner):
            row[t::inner] = values[a * inner + t::m * inner]
    return rows


class _ProfileOrdered(list):
    """The document reader's payoff vectors in profile order, unchecked: Game
    checks them in whole-list passes, and walks them by profile to name a defect."""


def _vectors_by_profile(table, counts: tuple[int, ...]) -> list:
    # The payoff vectors gathered one profile at a time, raising at the first defect.
    # Strategies numbered past len(table) are left out of the walk: the first
    # len(table) + 1 profiles stay, in order, and a table shorter than the
    # shape lacks one of them, so a huge shape costs no more than its table.
    n, cap = len(counts), len(table) + 1
    if type(table) is _ProfileOrdered:   # vectors past the shape's end go to invalid profiles
        table = dict(zip(profiles((counts[0] + len(table),) + counts[1:]), table))
    vectors = []
    for profile in profiles([min(m, cap) for m in counts]):
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
        extra = itertools.islice(itertools.filterfalse(valid.__contains__, table), 5)
        raise ValueError("payoff table has entries for invalid profiles: "
                         f"[{', '.join(map(_clip, extra))}]")
    return vectors


def _mix(weights: Sequence[int], rows) -> list[int]:
    # The sum of the rows weighted by `weights`, entry by entry.
    return [sum(map(operator.mul, weights, column)) for column in zip(*rows)]


def _numerators(strategies: Sequence["MixedStrategy"]) -> tuple[list[int], int]:
    # The joint probabilities of independent strategies at their pure profiles,
    # lexicographic, as int numerators over the product of their denominators.
    nums, den = [1], 1
    for strategy in strategies:
        d = math.lcm(*(p.denominator for p in strategy.probs))
        nums = [u * p.numerator * (d // p.denominator) for u in nums for p in strategy.probs]
        den *= d
    return nums, den


def _reduce(game: "Game", profile: "MixedProfile", player: int, nash: bool):
    # The player's matrix summed out against the complements (Nash: a value per
    # own strategy) or the own strategy (Berge: a value per complement), ints
    # over the denominator returned, and the side left as (numerators, den).
    rows, den = game.own_by_complement(player)
    own = _numerators(profile.strategies[player:player + 1])
    co = _numerators(profile.strategies[:player] + profile.strategies[player + 1:])
    (first, d_first), other = (co, own) if nash else (own, co)
    return _mix(first, zip(*rows) if nash else rows), den * d_first, other


def _clip(value, show=repr) -> str:
    # An echo of outside input in an error message: `show` of it, cut short, or its
    # type where there is none (an int past the digit limit, or a list with one).
    try:
        text = show(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 80 else text[:80] + "..."


def _checked_index(index, size: int, label: str) -> int:
    # A player or strategy index from outside: a non-bool int in range(size),
    # else TypeError or ValueError; `label` names it, "{}" standing for it.
    if type(index) is not int:
        raise TypeError(label.format(_clip(index)) + " is not an integer")
    if not 0 <= index < size:
        raise ValueError(label.format(_clip(index)) + f" out of range [0, {size})")
    return index


def rational(value) -> Fraction:
    """The exact rational a payoff or probability from outside stands for:
    a `Fraction` as it is, an `int`, or a string as `Fraction` reads it.  A
    malformed string, or a numerator or decimal needing more than
    `digit_limit()` digits (a decimal's counted before any big-int work, so
    "1e2000000" fails at once), is a ValueError; any other type, a bool or a
    float included, a TypeError.  Denominators are bounded where they meet:
    in a game's payoffs and in a mixed strategy, by their common denominator.
    A string of at most 40 characters spelled `-?D+` or `-?D+/D+` (D an ASCII
    digit, a nonzero denominator) is read by `int` directly, the same
    `Fraction` that `Fraction` reads from it, without its regex."""
    if isinstance(value, str) and len(value) <= 40 and value.isascii():
        num, slash, den = value.partition("/")
        if num.removeprefix("-").isdigit() and (not slash or den.isdigit() and den.strip("0")):
            return Fraction(int(num), int(den or 1))
    if isinstance(value, bool):
        raise TypeError("boolean is not a rational")
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed, "
                        "use an integer or a 'num/den' string")
    if isinstance(value, str):
        try:
            limit = digit_limit()
            mantissa, _, exponent = value.lower().partition("e")
            magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
            if magnitude.isdigit() and (
                    len(magnitude) > len(str(limit))
                    or sum(c.isdigit() for c in mantissa) + int(magnitude) > limit):
                raise ValueError(f"{value[:40]!r} needs more than {limit} decimal digits")
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational {_clip(value)} ({_clip(exc, str)})") from None
    elif not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot read a rational from {_clip(value)}")
    if _too_long(value.numerator):
        raise ValueError(f"numerator needs more than {digit_limit()} decimal digits")
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class MixedStrategy:
    """A probability distribution over one player's pure strategies."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.probs, (list, tuple)):
            raise TypeError("probabilities must be a list or tuple")
        probs = tuple(map(rational, self.probs))
        if not probs:
            raise ValueError("a mixed strategy needs at least one pure strategy")
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        if sum(probs) != 1:
            raise ValueError(f"probabilities must sum to exactly 1, got {_clip(sum(probs), str)}")
        if _too_long(math.lcm(*(p.denominator for p in probs))):
            raise ValueError("the common denominator of the probabilities needs more "
                             f"than {digit_limit()} decimal digits")
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)

    @classmethod
    def point(cls, index: int, size: int) -> "MixedStrategy":
        """The pure strategy `index` embedded as a point distribution."""
        _checked_index(index, size, "strategy index {}")
        return cls(tuple(Fraction(int(j == index)) for j in range(size)))

    @classmethod
    def uniform(cls, size: int) -> "MixedStrategy":
        if type(size) is not int:
            raise TypeError(f"strategy count {_clip(size)} is not an integer")
        return cls(tuple(Fraction(1, size) for _ in range(size)))


@dataclass(frozen=True)
class MixedProfile:
    """One mixed strategy per player."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        if not isinstance(self.strategies, (list, tuple)):
            raise TypeError(f"strategies {_clip(self.strategies)} are not a list or tuple")
        object.__setattr__(self, "strategies", tuple(self.strategies))
        for s in self.strategies:
            if not isinstance(s, MixedStrategy):
                raise TypeError(f"{_clip(s)} is not a MixedStrategy")

    def __len__(self):
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]

    def replace(self, player: int, strategy: MixedStrategy) -> "MixedProfile":
        """The profile with coordinate `player` swapped for `strategy`."""
        _checked_index(player, len(self.strategies), "player {}")
        if not isinstance(strategy, MixedStrategy):
            raise TypeError(f"{_clip(strategy)} is not a MixedStrategy")
        if len(strategy) != len(self.strategies[player]):
            raise ValueError("replacement strategy has the wrong number of pure strategies")
        return MixedProfile(self.strategies[:player] + (strategy,) + self.strategies[player + 1:])


class Game:
    """An n-player game given by strategy counts and an exact payoff tensor.

    `table`, a `Mapping`, maps every pure profile (a tuple of 0-based indices)
    to a list or tuple of n payoffs, each an `int`, a `Fraction` or a string
    that `rational` reads.  Game names the first missing profile or bad vector,
    then the first payoff `rational` refuses (prefixed with its profile and
    player), in profile order.  One player, or one-strategy players, are legal.
    """

    def __init__(self, strategy_counts: Sequence[int], table, strategy_names=None):
        if not isinstance(strategy_counts, (list, tuple)):
            raise TypeError(f"strategy counts {_clip(strategy_counts)} are not a list or tuple")
        counts = tuple(strategy_counts)
        if any(type(m) is not int for m in counts):
            raise TypeError(f"strategy counts must be integers, got {_clip(counts)}")
        if not counts or any(m < 1 for m in counts):
            raise ValueError("every player needs at least one strategy")
        if not isinstance(table, (_ProfileOrdered, Mapping)):
            raise TypeError(f"payoff table must be a mapping, not {type(table).__name__}")
        self._counts = counts
        n = len(counts)

        if strategy_names is not None:
            # The argument first, so a non-sequence is refused before it is iterated.
            for ns in itertools.chain([strategy_names], strategy_names):
                if not isinstance(ns, (list, tuple)):
                    raise TypeError(f"strategy names {_clip(ns)} are not a list or tuple")
            names = tuple(tuple(ns) for ns in strategy_names)
            if len(names) != n or any(len(ns) != m for ns, m in zip(names, counts)):
                raise ValueError("strategy_names shape does not match strategy_counts")
            for name in itertools.chain.from_iterable(names):
                if not isinstance(name, str):
                    raise TypeError(f"strategy name {_clip(name)} is not a string")
        # The reader's list is checked in whole-list passes (types first: len of an int
        # raises); any other table, or a list that fails them, is walked by profile.
        vectors = table
        if type(table) is not _ProfileOrdered or len(table) != math.prod(counts) or not (
                set(map(type, table)) <= {list, tuple} and set(map(len, table)) == {n}):
            vectors = _vectors_by_profile(table, counts)
        if strategy_names is None:   # only for a sound table, whose size bounds theirs
            names = tuple(tuple(f"s{i}_{j}" for j in range(m))
                          for i, m in enumerate(counts))
        self._names = names
        flat = list(itertools.chain.from_iterable(vectors))
        # Read in profile order, so the first bad payoff is reported: a document's, all ints
        # and strs, once per distinct value, others by position (1, True, 1.0 are equal keys).
        keys = flat if set(map(type, flat)) <= {int, str} else range(len(flat))
        values = dict(zip(keys, flat))
        for key, u in values.items():
            try:
                values[key] = rational(u)
            except (ValueError, TypeError) as exc:
                k = keys.index(key)
                profile = next(itertools.islice(profiles(counts), k // n, None))
                raise type(exc)(f"profile {list(profile)}, player {k % n + 1}: {exc}") from None
        # One common denominator, carried by every stored int: refused before
        # any payoff is scaled to it if it needs more than digit_limit()
        # digits, or all the payoffs together more than 1000 times that.
        limit, scale = digit_limit(), 1
        for d in {v.denominator for v in values.values()}:
            scale = math.lcm(scale, d)
            if _too_long(scale):
                raise ValueError("the common denominator of the payoffs needs more "
                                 f"than {limit} decimal digits")
        if len(flat) * len(str(scale)) > 1000 * limit:
            raise ValueError(f"{len(flat)} payoffs over a common denominator of {len(str(scale))} "
                             f"digits need more than {1000 * limit} decimal digits in all")
        scaled = {key: v.numerator * (scale // v.denominator) for key, v in values.items()}
        self._scale = scale
        self._tensors = tuple(tuple(map(scaled.__getitem__, keys[j::n])) for j in range(n))
        self._strides = tuple(math.prod(counts[j + 1:]) for j in range(n))

    @property
    def player_count(self) -> int:
        return len(self._counts)

    @property
    def strategy_counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def strategy_names(self) -> tuple[tuple[str, ...], ...]:
        return self._names

    def pure_profiles(self) -> Iterator[PureProfile]:
        """All pure profiles in lexicographic order."""
        return profiles(self._counts)

    def validate_pure(self, profile: Sequence[int]) -> PureProfile:
        profile = tuple(profile)
        if len(profile) != self.player_count:
            raise ValueError(f"profile {_clip(profile)} has wrong length")
        for j, (i, m) in enumerate(zip(profile, self._counts)):
            _checked_index(i, m, f"strategy index {{}} of player {j}")
        return profile

    def validate_profile(self, profile: MixedProfile) -> MixedProfile:
        if not isinstance(profile, MixedProfile):
            raise TypeError(f"{_clip(profile)} is not a MixedProfile")
        if len(profile) != self.player_count:
            raise ValueError("profile has wrong number of players")
        for j, (s, m) in enumerate(zip(profile.strategies, self._counts)):
            if len(s) != m:
                raise ValueError(f"strategy of player {j} has length {len(s)}, expected {m}")
        return profile

    def _index(self, profile: Sequence[int]) -> int:
        # The position of a pure profile in each tensor and in pure_profiles().
        return sum(map(operator.mul, self.validate_pure(profile), self._strides))

    def payoff(self, profile: Sequence[int], player: int) -> Fraction:
        """The stored payoff of `player` at a pure profile."""
        return self.payoff_vector(profile)[_checked_index(player, self.player_count, "player {}")]

    def payoff_vector(self, profile: Sequence[int]) -> tuple[Fraction, ...]:
        index = self._index(profile)
        return tuple(Fraction(values[index], self._scale) for values in self._tensors)

    def own_by_complement(self, player: int) -> tuple[list[Sequence[int]], int]:
        """The player's payoffs as ints over the common denominator returned
        with them: row `a` for own strategy `a`, entry `c` of a row for the
        c-th complement (co-players in increasing order), lexicographic."""
        _checked_index(player, self.player_count, "player {}")
        return _by_axis(self._tensors[player], self._counts, player), self._scale

    def attains_best(self, player: int, over_own: bool) -> list[bool]:
        """Per pure profile, in `pure_profiles()` order: is the player's payoff
        there the best among all profiles that share its complement
        (`over_own`: only the player's own strategy varies) or its own
        strategy (only the co-players' strategies vary)?"""
        rows, _ = self.own_by_complement(player)
        m, inner = self._counts[player], math.prod(self._counts[player + 1:])
        if over_own:   # per block of profiles, each column's best once per own strategy
            tops = list(map(max, zip(*rows)))
            best = [u for c in range(0, len(tops), inner) for u in tops[c:c + inner] * m]
        else:   # each row's best, once per complement of the players after
            best = [top for top in map(max, rows) for _ in range(inner)] * (len(rows[0]) // inner)
        return list(map(operator.eq, self._tensors[player], best))

    def grid_payoffs(self, grids: Sequence[Sequence[Sequence[int]]],
                     resolution: int) -> tuple[int, Iterator]:
        """Every player's expected payoff at every profile of a product grid.
        `grids[j]` lists mixed strategies of player j as integer numerators
        over `resolution`; callers validate them.  Returns the common
        denominator of the payoffs and an iterator over the profiles, in
        lexicographic order of their grid indices, of (indices, payoffs as
        ints over that denominator).  Each player's tensor, contracted on the
        axes of the players before a point of the walk, is shared by every
        profile below that point."""
        n = self.player_count

        def walk(depth, tensors, indices):
            rest = self._counts[depth:]
            for index, point in enumerate(grids[depth]):
                if depth < n - 1:
                    yield from walk(depth + 1, [_mix(point, _by_axis(t, rest, 0)) for t in tensors],
                                    indices + (index,))
                else:   # one axis left: each tensor is a vector, its contraction a dot product
                    yield indices + (index,), [sum(map(operator.mul, point, t)) for t in tensors]

        return self._scale * resolution ** n, walk(0, self._tensors, ())

    def expected_payoff(self, profile: MixedProfile, player: int) -> Fraction:
        """Exact expected payoff of `player` under a mixed profile."""
        self.validate_profile(profile)
        values, den, (weights, d) = _reduce(self, profile, player, nash=False)
        return Fraction(sum(map(operator.mul, weights, values)), den * d)

    def point(self, profile: Sequence[int]) -> MixedProfile:
        """A pure profile embedded as a profile of point distributions."""
        return MixedProfile(tuple(MixedStrategy.point(i, m)
                                  for i, m in zip(self.validate_pure(profile), self._counts)))

    def uniform(self) -> MixedProfile:
        return MixedProfile(tuple(map(MixedStrategy.uniform, self._counts)))

    def name_of(self, profile: Sequence[int]) -> tuple[str, ...]:
        return tuple(self._names[j][i] for j, i in enumerate(self.validate_pure(profile)))

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        # The common denominator is canonical, so equal payoffs give equal ints.
        return (self._counts == other._counts and self._scale == other._scale
                and self._tensors == other._tensors)

    def __repr__(self):
        shape = "x".join(str(m) for m in self._counts)
        return f"Game({self.player_count} players, {shape})"
