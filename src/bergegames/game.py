"""Finite normal-form games with exact rational payoffs.

Everything is exact: payoffs and probabilities are `fractions.Fraction`,
so expected values, equilibrium gaps, and all comparisons are certificates,
never approximations.  All objects are immutable after construction and all
operations are pure functions.

Conventions: players and strategies are 0-based; a pure profile is a tuple
of strategy indices, one per player; the payoff tensor is stored row-major
with the last player's index varying fastest.
"""

from __future__ import annotations

import itertools
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floating-point values are not allowed; use Fraction, int or 'num/den'")
    return Fraction(value)


@dataclass(frozen=True)
class MixedStrategy:
    """A probability distribution over one player's pure strategies."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(_as_fraction(p) for p in self.probs)
        if not probs:
            raise ValueError("a mixed strategy needs at least one pure strategy")
        if any(p < 0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        if sum(probs) != 1:
            raise ValueError("probabilities must sum to exactly 1, got %s" % (sum(probs),))
        object.__setattr__(self, "probs", probs)

    def __len__(self):
        return len(self.probs)

    @classmethod
    def point(cls, index: int, size: int) -> "MixedStrategy":
        """The pure strategy `index` embedded as a point distribution."""
        if not 0 <= index < size:
            raise ValueError(f"strategy index {index} out of range for {size} strategies")
        return cls(tuple(Fraction(int(j == index)) for j in range(size)))

    @classmethod
    def uniform(cls, size: int) -> "MixedStrategy":
        return cls((Fraction(1, size),) * size)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)


@dataclass(frozen=True)
class MixedProfile:
    """One mixed strategy per player."""

    strategies: tuple[MixedStrategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))

    def __len__(self):
        return len(self.strategies)

    def __getitem__(self, player: int) -> MixedStrategy:
        return self.strategies[player]

    @classmethod
    def point(cls, indices: Sequence[int], sizes: Sequence[int]) -> "MixedProfile":
        if len(indices) != len(sizes):
            raise ValueError("index/size length mismatch")
        return cls(tuple(MixedStrategy.point(i, m) for i, m in zip(indices, sizes)))

    @classmethod
    def uniform(cls, sizes: Sequence[int]) -> "MixedProfile":
        return cls(tuple(MixedStrategy.uniform(m) for m in sizes))

    def replace(self, player: int, strategy: MixedStrategy) -> "MixedProfile":
        """The profile with coordinate `player` swapped for `strategy`."""
        if not 0 <= player < len(self.strategies):
            raise ValueError(f"player {player} out of range")
        if len(strategy) != len(self.strategies[player]):
            raise ValueError("replacement strategy has the wrong number of pure strategies")
        parts = list(self.strategies)
        parts[player] = strategy
        return MixedProfile(tuple(parts))


class Game:
    """An n-player game given by strategy counts and an exact payoff tensor.

    `table` maps every pure profile (a tuple of 0-based indices) to the
    n-vector of payoffs.  Degenerate games (a single player, or a player
    with a single strategy) are legal.
    """

    def __init__(self, strategy_counts: Sequence[int], table, strategy_names=None):
        counts = tuple(int(m) for m in strategy_counts)
        if not counts or any(m < 1 for m in counts):
            raise ValueError("every player needs at least one strategy")
        self._counts = counts
        n = len(counts)

        if strategy_names is not None:
            names = tuple(tuple(ns) for ns in strategy_names)
            if len(names) != n or any(len(ns) != m for ns, m in zip(names, counts)):
                raise ValueError("strategy_names shape does not match strategy_counts")
        else:
            names = tuple(tuple(f"s{i}_{j}" for j in range(m))
                          for i, m in enumerate(counts))
        self._names = names

        payoffs = {}
        for profile in profiles(counts):
            try:
                vec = table[profile]
            except KeyError:
                raise ValueError(f"missing payoff for profile {profile}") from None
            vec = tuple(_as_fraction(u) for u in vec)
            if len(vec) != n:
                raise ValueError(f"payoff vector at {profile} has length {len(vec)}, expected {n}")
            payoffs[profile] = vec
        if len(table) != len(payoffs):
            extra = set(table) - set(payoffs)
            raise ValueError(f"payoff table has entries for invalid profiles: {sorted(extra)}")
        self._payoffs = payoffs

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
            raise ValueError(f"profile {profile} has wrong length")
        for j, (i, m) in enumerate(zip(profile, self._counts)):
            if not 0 <= i < m:
                raise ValueError(f"strategy index {i} of player {j} out of range [0, {m})")
        return profile

    def validate_profile(self, profile: MixedProfile) -> MixedProfile:
        if len(profile) != self.player_count:
            raise ValueError("profile has wrong number of players")
        for j, (s, m) in enumerate(zip(profile.strategies, self._counts)):
            if len(s) != m:
                raise ValueError(f"strategy of player {j} has length {len(s)}, expected {m}")
        return profile

    def payoff(self, profile: Sequence[int], player: int) -> Fraction:
        """The stored payoff of `player` at a pure profile."""
        profile = self.validate_pure(profile)
        if not 0 <= player < self.player_count:
            raise ValueError(f"player {player} out of range")
        return self._payoffs[profile][player]

    def payoff_vector(self, profile: Sequence[int]) -> tuple[Fraction, ...]:
        return self._payoffs[self.validate_pure(profile)]

    def expected_payoff(self, profile: MixedProfile, player: int) -> Fraction:
        """Exact expected payoff of `player` under a mixed profile."""
        self.validate_profile(profile)
        if not 0 <= player < self.player_count:
            raise ValueError(f"player {player} out of range")
        total = Fraction(0)
        for pure in self.pure_profiles():
            weight = Fraction(1)
            for s, i in zip(profile.strategies, pure):
                weight *= s.probs[i]
                if weight == 0:
                    break
            if weight:
                total += weight * self._payoffs[pure][player]
        return total

    def point(self, profile: Sequence[int]) -> MixedProfile:
        """A pure profile embedded as a profile of point distributions."""
        return MixedProfile.point(self.validate_pure(profile), self._counts)

    def uniform(self) -> MixedProfile:
        return MixedProfile.uniform(self._counts)

    def name_of(self, profile: Sequence[int]) -> tuple[str, ...]:
        return tuple(self._names[j][i] for j, i in enumerate(profile))

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (self._counts == other._counts and self._payoffs == other._payoffs)

    def __repr__(self):
        shape = "x".join(str(m) for m in self._counts)
        return f"Game({self.player_count} players, {shape})"
