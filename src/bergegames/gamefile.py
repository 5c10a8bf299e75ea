"""Game documents: a JSON format with exact rational payoffs, plus the
built-in games used throughout the test suite and CLI.

Document layout::

    {"players": 3,
     "strategies": [["A1","A2"], ["B1","B2"], ["C1","C2"]],
     "payoffs": [{"profile": [0,0,0], "u": ["2","1","0"]}, ...]}

Payoff entries are integers or strings "num/den"; floating-point numbers
are rejected so the format stays exact.  Each payoff record names its
profile explicitly, so record order does not matter.  `parse_game` checks
only the document: its header, then records that are objects naming each
profile once by in-range integer indices, naming the first defect in
document order.  Records in profile order, as `serialize_game` writes them,
are recognised by whole-list passes; any others are read one at a time.
The 'u' lists go to `Game` unchecked: it owns every payoff-table check,
names the first missing profile, bad vector or bad payoff in profile
order, and reads each distinct entry once with `game.rational`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator

from .game import Game, _ProfileOrdered, _clip, profiles


class GameFormatError(ValueError):
    """A game document is malformed."""


def parse_game(text: str) -> Game:
    """Parse a game document into a Game; raises GameFormatError with the
    offending location on any defect."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:   # or too deeply nested to decode
        raise GameFormatError(f"not valid JSON: {exc}") from None
    except ValueError as exc:
        # An integer with more digits than the interpreter converts.
        raise GameFormatError(f"number too large: {exc}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("document must be a JSON object")
    for key in ("players", "strategies", "payoffs"):
        if key not in doc:
            raise GameFormatError(f"missing member {key!r}")

    n = doc["players"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise GameFormatError("'players' must be a positive integer")
    names = doc["strategies"]
    if (not isinstance(names, list) or len(names) != n
            or any(not isinstance(ns, list) or not ns for ns in names)):
        raise GameFormatError("'strategies' must be one nonempty list of names per player")
    counts = tuple(len(ns) for ns in names)

    records = doc["payoffs"]
    if type(records) is not list:
        raise GameFormatError("'payoffs' must be a list of records")
    # Records in profile order pass as one list; any others are walked one at a time.
    table = _table_in_passes(records, counts) or _table_by_record(records, counts)
    try:
        return Game(counts, table, names)
    except (ValueError, TypeError) as exc:
        raise GameFormatError(str(exc)) from None


@functools.lru_cache(maxsize=8)
def _profile_lists(counts: tuple[int, ...]) -> list[list[int]]:
    # The shape's profiles as the lists a sound document spells them with, in
    # profile order.  Shared between calls, so never changed.
    return list(map(list, profiles(counts)))


def _table_in_passes(records: list, counts: tuple[int, ...]):
    # The 'u' lists of records in profile order, checked in whole-list passes,
    # or None if any check fails or the records come in another order.
    # Profiles equal to the shape's, in order, come once each: none twice,
    # missing, out of range or of the wrong length.  The count is compared
    # first, so no pass runs longer than the document; the indices must be
    # ints, as list equality reads true as 1.
    if len(records) != math.prod(counts):
        return None
    try:   # a record that is not an object has no members to get
        raws = list(map(operator.itemgetter("profile"), records))
        us = list(map(operator.itemgetter("u"), records))
    except (KeyError, TypeError):
        return None
    if (raws != _profile_lists(counts)
            or set(map(type, itertools.chain.from_iterable(raws))) != {int}):
        return None
    return _ProfileOrdered(us)


def _table_by_record(records: list, counts: tuple[int, ...]) -> dict:
    # The 'u' lists by profile, read one record at a time, in document order,
    # raising a GameFormatError at the first defect of a record.
    n = len(counts)
    int_profile = (int,) * n
    ranges = [range(m) for m in counts]
    table = {}
    for rec in records:
        if type(rec) is not dict or "profile" not in rec or "u" not in rec:
            raise GameFormatError(f"payoff record {_clip(rec)} needs 'profile' and 'u'")
        raw = rec["profile"]
        if type(raw) is not list or tuple(map(type, raw)) != int_profile:
            raise GameFormatError(f"profile {_clip(raw)} must be {n} integer indices")
        profile = tuple(raw)
        if not all(map(range.__contains__, ranges, profile)):
            j = next(j for j, i in enumerate(profile) if i not in ranges[j])
            raise GameFormatError(f"profile {_clip(raw)}: index {_clip(raw[j])} "
                                  f"of player {j + 1} out of range [0, {counts[j]})")
        if profile in table:
            raise GameFormatError(f"duplicate payoff record for profile {raw}")
        table[profile] = rec["u"]
    return table


def load_game(path) -> Game:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_game(fh.read())


def serialize_game(game: Game) -> str:
    """Document text for a Game; parse_game(serialize_game(g)) == g."""
    doc = {
        "players": game.player_count,
        "strategies": [list(ns) for ns in game.strategy_names],
        "payoffs": [
            {"profile": list(profile),
             "u": [str(u) for u in game.payoff_vector(profile)]}
            for profile in game.pure_profiles()
        ],
    }
    return json.dumps(doc, indent=2)


# The 3-player 2x2x2 game in which no player can influence their own payoff,
# every profile is a weak Nash equilibrium, yet no Berge equilibrium exists
# in pure or mixed strategies.
_EQ5_TABLE = {
    (0, 0, 0): (2, 1, 0), (0, 1, 0): (1, 1, 1),
    (1, 0, 0): (2, 0, 1), (1, 1, 0): (1, 0, 2),
    (0, 0, 1): (1, 2, 0), (0, 1, 1): (0, 2, 1),
    (1, 0, 1): (1, 1, 1), (1, 1, 1): (0, 1, 2),
}

_PD_TABLE = {(0, 0): (3, 3), (0, 1): (0, 5), (1, 0): (5, 0), (1, 1): (1, 1)}

_ABC = (("A1", "A2"), ("B1", "B2"), ("C1", "C2"))


def _sumgame222_payoffs(p):
    # Own-payoff-independent positive control: each player's payoff counts
    # how many co-players pick their first strategy, so all three
    # best-support graphs meet at the all-first-strategies corner.
    first = [int(i == 0) for i in p]
    return tuple(sum(first) - first[j] for j in range(3))


_BUILTINS = {
    "eq5": lambda: Game((2, 2, 2), _EQ5_TABLE, _ABC),
    "zero222": lambda: Game((2, 2, 2), dict.fromkeys(profiles((2, 2, 2)), (0, 0, 0)), _ABC),
    "pd": lambda: Game((2, 2), _PD_TABLE, (("C", "D"), ("C", "D"))),
    "sumgame222": lambda: Game((2, 2, 2), {p: _sumgame222_payoffs(p)
                                           for p in profiles((2, 2, 2))}, _ABC),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_game(name: str) -> Game:
    """A built-in game by name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; available: "
                         + ", ".join(BUILTIN_NAMES)) from None
