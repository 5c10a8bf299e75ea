"""Seeded inputs and the three benchmark workloads (why each was chosen is
recorded in BENCHMARK.json and README.md).

Every op is one `bergegames` CLI call on a freshly generated game document.
Documents are written here as JSON text in the documented game format, not
through the library's serializer, so the program sees only the files.  Each
op carries a checker that compares the call's exit code and stdout with the
exact oracle in `oracle.py`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle

LETTERS = "ABCDEFGH"


@dataclass
class Op:
    kind: str                  # label used for reporting and trace pairing
    argv_tail: list            # CLI arguments after the document path
    command: str               # CLI subcommand
    doc: str                   # game document text
    check: Callable[[int, str], Optional[str]]


@dataclass
class GeneratedGame:
    counts: tuple
    names: list
    table: dict                # pure profile -> payoff vector of Fractions

    def doc(self) -> str:
        return json.dumps({
            "players": len(self.counts),
            "strategies": self.names,
            "payoffs": [{"profile": list(p), "u": [oracle.fmt(x) for x in vec]}
                        for p, vec in self.table.items()],
        })

    def scaled(self) -> oracle.ScaledGame:
        return oracle.ScaledGame(self.counts, self.table)


def make_game(counts, payoff) -> GeneratedGame:
    names = [[f"{LETTERS[j]}{i + 1}" for i in range(m)] for j, m in enumerate(counts)]
    table = {p: tuple(payoff(p, j) for j in range(len(counts)))
             for p in oracle.profiles(counts)}
    return GeneratedGame(tuple(counts), names, table)


def rational_game(rng: random.Random, counts) -> GeneratedGame:
    """Payoffs num/den with |num| <= 24 and den in 1..12."""
    return make_game(counts, lambda p, j: Fraction(rng.randint(-24, 24), rng.randint(1, 12)))


def tied_game(rng: random.Random, counts) -> GeneratedGame:
    """Integer payoffs in {0, 1, 2}: many ties, so pure checks scan far."""
    return make_game(counts, lambda p, j: Fraction(rng.randint(0, 2)))


def oi222_game(rng: random.Random) -> GeneratedGame:
    """A 2x2x2 game in which no player's own strategy affects their payoff
    (payoffs 0..3 drawn per player and co-player profile)."""
    co = [{c: rng.randint(0, 3) for c in oracle.profiles((2, 2))} for _ in range(3)]
    return make_game((2, 2, 2), lambda p, j: Fraction(co[j][p[:j] + p[j + 1:]]))


EQ5 = {
    (0, 0, 0): (2, 1, 0), (0, 1, 0): (1, 1, 1),
    (1, 0, 0): (2, 0, 1), (1, 1, 0): (1, 0, 2),
    (0, 0, 1): (1, 2, 0), (0, 1, 1): (0, 2, 1),
    (1, 0, 1): (1, 1, 1), (1, 1, 1): (0, 1, 2),
}


def eq5_variant(rng: random.Random) -> GeneratedGame:
    """The paper's game eq5 (no Berge equilibrium at all) under a seeded
    relabelling of players and of each player's two strategies; relabelling
    keeps every property the oracle checks."""
    perm = list(range(3))
    rng.shuffle(perm)               # new player k is old player perm[k]
    flip = [rng.randint(0, 1) for _ in range(3)]

    def payoff(p, k):
        old = [0, 0, 0]
        for new_j, i in enumerate(p):
            old[perm[new_j]] = i ^ flip[new_j]
        return Fraction(EQ5[tuple(old)][perm[k]])
    return make_game((2, 2, 2), payoff)


def random_probs(rng: random.Random, size: int, denom: int = 12):
    weights = [rng.randint(0, denom) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


# -- ops ---------------------------------------------------------------------

def search_op(rng):
    g = rational_game(rng, (3, 3, 3))
    return Op("search", ["--resolution", "2", "--top", "5"], "search", g.doc(),
              lambda code, out: oracle.check_text(
                  code, out, oracle.search_text(g.scaled(), 2, 5)))


def info_op(rng):
    g = tied_game(rng, (5, 5, 5, 5))
    return Op("info", [], "info", g.doc(),
              lambda code, out: oracle.check_text(code, out,
                                                  oracle.info_text(g.scaled(), g.names)))


def enumerate_op(rng, kind):
    g = tied_game(rng, (5, 5, 5, 5))
    return Op(f"pure-{kind}", [], f"pure-{kind}", g.doc(),
              lambda code, out: oracle.check_text(
                  code, out, oracle.enumerate_text(g.scaled(), g.names, kind)))


def check_op(rng, kind, players):
    g = rational_game(rng, (3,) * players)
    probs = [random_probs(rng, m) for m in g.counts]
    spec = json.dumps([[oracle.fmt(x) for x in s] for s in probs])
    return Op(f"check-{kind}-{'3' * players}", ["--profile", spec, "--kind", kind], "check",
              g.doc(),
              lambda code, out: oracle.check_profile(g.scaled(), g.names, probs, kind,
                                                     code, out))


def decide_op(rng, kind):
    g = oi222_game(rng) if kind == "oi222" else eq5_variant(rng)
    return Op(f"decide-{kind}", [], "decide-berge", g.doc(),
              lambda code, out: oracle.check_decide(g.scaled(), code, out))


class Workload:
    """A named op schedule: `kind_at(rng, i)` picks the kind of op number i,
    `build(rng, kind)` generates a fresh input of that kind."""

    def __init__(self, name, kind_at, builders):
        self.name = name
        self.kind_at = kind_at
        self.builders = builders

    def build(self, rng, kind) -> Op:
        return self.builders[kind](rng)


ENUMERATE_KINDS = ("info", "pure-nash", "pure-berge")

# Op kinds in order of their time at the seed code, with weights (out of 15)
# that put the median inside the check-nash-333 share (40%-67% of ops) and
# the 90th percentile inside the check-nash-3333 share (80%-100%).  On a
# boundary between two kinds a small shift in the mix would move them.
VERDICT_KINDS = {
    "decide-eq5": 1, "decide-oi222": 3,
    "check-berge-333": 2, "check-nash-333": 4,
    "check-berge-3333": 2, "check-nash-3333": 3,
}

WORKLOADS = {w.name: w for w in (
    Workload("grid", lambda rng, i: "search", {"search": search_op}),
    Workload("enumerate", lambda rng, i: ENUMERATE_KINDS[i % 3],
             {"info": info_op,
              "pure-nash": lambda rng: enumerate_op(rng, "nash"),
              "pure-berge": lambda rng: enumerate_op(rng, "berge")}),
    Workload("verdicts",
             lambda rng, i: rng.choices(list(VERDICT_KINDS),
                                        weights=list(VERDICT_KINDS.values()))[0],
             {"decide-oi222": lambda rng: decide_op(rng, "oi222"),
              "decide-eq5": lambda rng: decide_op(rng, "eq5"),
              "check-nash-333": lambda rng: check_op(rng, "nash", 3),
              "check-berge-333": lambda rng: check_op(rng, "berge", 3),
              "check-nash-3333": lambda rng: check_op(rng, "nash", 4),
              "check-berge-3333": lambda rng: check_op(rng, "berge", 4)}),
)}
