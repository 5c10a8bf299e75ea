"""Exact oracle for the benchmark: the answers every CLI command should print,
computed without the library.

The oracle reads the payoff table the generator produced (a dict from pure
profile to payoff vector of Fractions), scales it to integers once, and
evaluates the defining inequalities directly.  Mixed profiles are handled by
vertex enumeration: a player's best response against fixed co-players, and
the co-players' best joint support of a fixed own strategy, are both attained
at pure strategies, so every gap is a maximum over finitely many pure
alternatives.  Nothing here calls into `bergegames`, so a wrong answer from
the timed code cannot also be the expected one.

Every `check_*` function takes the exit code and stdout of one CLI call and
returns None when both agree with the oracle, or a one-line description of
the first mismatch.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

COORD_NAMES = ("p", "q", "r")


def profiles(counts):
    """All pure profiles in lexicographic order."""
    return itertools.product(*(range(m) for m in counts))


class ScaledGame:
    """A payoff table scaled to integers by the lcm `scale` of its denominators."""

    def __init__(self, counts, table):
        self.counts = tuple(counts)
        self.n = len(self.counts)
        self.scale = math.lcm(*(u.denominator for vec in table.values() for u in vec))
        self.u = {p: tuple(int(x * self.scale) for x in vec) for p, vec in table.items()}

    def others(self, player):
        return [j for j in range(self.n) if j != player]

    # -- pure structure -----------------------------------------------------

    def pure_nash(self):
        # best[i][complement]: player i's best payoff over own strategies.
        best = [{} for _ in range(self.n)]
        for p, vec in self.u.items():
            for i in range(self.n):
                c = p[:i] + p[i + 1:]
                if vec[i] > best[i].get(c, vec[i] - 1):
                    best[i][c] = vec[i]
        return [p for p in profiles(self.counts)
                if all(self.u[p][i] == best[i][p[:i] + p[i + 1:]] for i in range(self.n))]

    def pure_berge(self):
        # best[i][own]: player i's best payoff over all complements of `own`.
        best = [{} for _ in range(self.n)]
        for p, vec in self.u.items():
            for i in range(self.n):
                if vec[i] > best[i].get(p[i], vec[i] - 1):
                    best[i][p[i]] = vec[i]
        return [p for p in profiles(self.counts)
                if all(self.u[p][i] == best[i][p[i]] for i in range(self.n))]

    def constant_sum(self):
        sums = {sum(vec) for vec in self.u.values()}
        return Fraction(sums.pop(), self.scale) if len(sums) == 1 else None

    def own_payoff_independent(self):
        flags = []
        for i in range(self.n):
            seen = {}
            flags.append(all(seen.setdefault(p[:i] + p[i + 1:], vec[i]) == vec[i]
                             for p, vec in self.u.items()))
        return flags

    # -- mixed profiles -----------------------------------------------------

    def gaps(self, probs):
        """Exact gaps at the mixed profile `probs` (one tuple of Fractions per
        player).  Returns (realized, nash, berge, den): realized[i] is player
        i's expected payoff, nash[i][own] the payoff of deviating to `own`,
        berge[i][complement] the payoff of the own strategy against a pure
        complement; every value is an integer over the common denominator
        `den`."""
        dens = [math.lcm(*(x.denominator for x in s)) for s in probs]
        w = [[int(x * d) for x in s] for s, d in zip(probs, dens)]
        total = math.prod(dens)
        n = self.n
        realized = [0] * n
        nash = [[0] * m for m in self.counts]
        berge = [{} for _ in range(n)]
        for p, vec in self.u.items():
            ws = [w[j][p[j]] for j in range(n)]
            for i in range(n):
                rest = math.prod(ws[:i]) * math.prod(ws[i + 1:])
                realized[i] += ws[i] * rest * vec[i]
                nash[i][p[i]] += rest * dens[i] * vec[i]
                c = p[:i] + p[i + 1:]
                berge[i][c] = berge[i].get(c, 0) + ws[i] * (total // dens[i]) * vec[i]
        return realized, nash, berge, total * self.scale

    def deficiency(self, probs, kind):
        return deficiency_of(self.gaps(probs), kind)


def deficiency_of(gaps, kind):
    """The largest gap any player could close (Nash: by own deviation;
    Berge: by the co-players' joint complement), floored at 0."""
    realized, nash, berge, den = gaps
    options = nash if kind == "nash" else [list(b.values()) for b in berge]
    worst = max(max(opts) - r for opts, r in zip(options, realized))
    return Fraction(max(worst, 0), den)


# -- output checkers ---------------------------------------------------------

def fmt(x: Fraction) -> str:
    return str(Fraction(x))


def fmt_profile(probs) -> str:
    return " ".join("(" + ",".join(fmt(x) for x in s) + ")" for s in probs)


def _mismatch(label, expected, got):
    return f"{label}: expected {expected!r}, got {got!r}"


def check_text(code, out, expected_text, expected_code=0):
    if code != expected_code:
        return _mismatch("exit code", expected_code, code)
    if out != expected_text:
        for k, (e, g) in enumerate(itertools.zip_longest(expected_text.splitlines(),
                                                         out.splitlines())):
            if e != g:
                return _mismatch(f"line {k + 1}", e, g)
        return "output differs in trailing whitespace"
    return None


def info_text(game: ScaledGame, names) -> str:
    lines = [f"players: {game.n}"]
    for j, ns in enumerate(names):
        lines.append(f"player {j + 1}: {len(ns)} strategies ({', '.join(ns)})")
    total = game.constant_sum()
    lines.append("constant sum: " + ("no" if total is None else fmt(total)))
    lines.append("own-payoff independent: " + " ".join(
        f"player {j + 1}={'yes' if f else 'no'}"
        for j, f in enumerate(game.own_payoff_independent())))
    return "\n".join(lines) + "\n"


def enumerate_text(game: ScaledGame, names, kind) -> str:
    found = game.pure_nash() if kind == "nash" else game.pure_berge()
    lines = [" ".join(names[j][i] for j, i in enumerate(p)) for p in found]
    lines.append(f"count: {len(found)}")
    return "\n".join(lines) + "\n"


def simplex_points(size, resolution):
    """Every probability vector of length `size` with entries in multiples of
    1/resolution, lexicographic."""
    def parts(size, left):
        if size == 1:
            yield (left,)
            return
        for first in range(left + 1):
            for rest in parts(size - 1, left - first):
                yield (first,) + rest
    return [tuple(Fraction(k, resolution) for k in v) for v in parts(size, resolution)]


def search_text(game: ScaledGame, resolution, top) -> str:
    grids = [simplex_points(m, resolution) for m in game.counts]
    scored = sorted((game.deficiency(combo, "berge"), combo)
                    for combo in itertools.product(*grids))
    return "".join(f"deficiency {fmt(d)} at {fmt_profile(combo)}\n"
                   for d, combo in scored[:top])


_CHECK_RE = re.compile(r"kind: (\w+)\nequilibrium: (yes|no)\ndeficiency: (\S+)\n"
                       r"worst witness: player (\d+) (.*)\n\Z")


def check_profile(game: ScaledGame, names, probs, kind, code, out):
    """A `check` answer: verdict and deficiency must equal the oracle's, and
    the printed witness must attain that deficiency."""
    gaps = game.gaps(probs)
    realized, nash, berge, den = gaps
    deficiency = deficiency_of(gaps, kind)
    m = _CHECK_RE.match(out)
    if m is None:
        return f"unparsable check output {out!r}"
    if m.group(1) != kind:
        return _mismatch("kind", kind, m.group(1))
    expected_eq = "yes" if deficiency == 0 else "no"
    if m.group(2) != expected_eq:
        return _mismatch("equilibrium", expected_eq, m.group(2))
    if m.group(3) != fmt(deficiency):
        return _mismatch("deficiency", fmt(deficiency), m.group(3))
    expected_code = 0 if deficiency == 0 else 3
    if code != expected_code:
        return _mismatch("exit code", expected_code, code)
    player = int(m.group(4)) - 1
    if not 0 <= player < game.n:
        return f"witness player {player + 1} out of range"
    witness = m.group(5)
    if kind == "nash":
        w = re.fullmatch(r"deviating to (\S+)", witness)
        if w is None or w.group(1) not in names[player]:
            return f"bad nash witness {witness!r}"
        value = nash[player][names[player].index(w.group(1))]
    else:
        w = re.fullmatch(r"with complement \((.*)\)", witness)
        co = w.group(1).split(", ") if w else []
        others = game.others(player)
        if len(co) != len(others) or any(s not in names[j] for s, j in zip(co, others)):
            return f"bad berge witness {witness!r}"
        value = berge[player][tuple(names[j].index(s) for s, j in zip(co, others))]
    if Fraction(value - realized[player], den) != deficiency:
        return f"witness {witness!r} of player {player + 1} does not attain the deficiency"
    return None


_DECIDE_RE = re.compile(r"outcome: (exists|not-exists)\n"
                        r"(?:player [123]: .*\n){3}"
                        r"(witness: .*\n|conflict: .*\n)?\Z")
_CONFLICT_RE = re.compile(r"conflict: coordinate ([pqr]) is fixed to 0 by player ([123]) "
                          r"and to 1 by player ([123])\n")
_WITNESS_RE = re.compile(r"witness: \((\S+),(\S+)\) \((\S+),(\S+)\) \((\S+),(\S+)\)\n")


def decide_exists(game: ScaledGame) -> bool:
    """Mixed Berge existence for an own-payoff-independent 2x2x2 game.

    Each player's Berge set is a union of faces of the cube of first-strategy
    probabilities, so the three sets meet iff they meet at a point with
    coordinates in {0, 1/2, 1}."""
    half = (Fraction(0), Fraction(1, 2), Fraction(1))
    return any(game.deficiency([(x, 1 - x) for x in point], "berge") == 0
               for point in itertools.product(half, repeat=3))


def _maximizing_complements(game: ScaledGame, player):
    values = {p[:player] + p[player + 1:]: vec[player]
              for p, vec in game.u.items() if p[player] == 0}
    best = max(values.values())
    return [c for c, v in values.items() if v == best]


def check_decide(game: ScaledGame, code, out):
    """A `decide-berge` answer: the outcome must equal the oracle's; a witness
    must have deficiency 0; a conflict must be one that the two named
    players' maximizing pure complements really force."""
    m = _DECIDE_RE.match(out)
    if m is None:
        return f"unparsable decide-berge output {out!r}"
    exists = decide_exists(game)
    expected = "exists" if exists else "not-exists"
    if m.group(1) != expected:
        return _mismatch("outcome", expected, m.group(1))
    if code != (0 if exists else 3):
        return _mismatch("exit code", 0 if exists else 3, code)
    tail = m.group(2) or ""
    if exists:
        w = _WITNESS_RE.fullmatch(tail)
        if w is None:
            return f"missing or unparsable witness {tail!r}"
        try:
            probs = [(Fraction(w.group(2 * j + 1)), Fraction(w.group(2 * j + 2)))
                     for j in range(3)]
        except (ValueError, ZeroDivisionError):
            return f"unparsable witness {tail!r}"
        if any(a < 0 or b < 0 or a + b != 1 for a, b in probs):
            return f"witness {tail.strip()!r} is not a mixed profile"
        if game.deficiency(probs, "berge") != 0:
            return f"witness {tail.strip()!r} has nonzero Berge deficiency"
        return None
    if not tail:
        return None  # a negative outcome without a single-coordinate conflict
    c = _CONFLICT_RE.fullmatch(tail)
    if c is None:
        return f"unparsable conflict {tail!r}"
    coord = COORD_NAMES.index(c.group(1))
    zero, one = int(c.group(2)) - 1, int(c.group(3)) - 1
    # Coordinate value = probability of strategy 0, so "fixed to 0" means
    # every maximizing complement has that player on strategy 1.
    for player, index in ((zero, 1), (one, 0)):
        if player == coord:
            return f"player {player + 1} cannot force their own coordinate"
        pos = game.others(player).index(coord)
        if any(comp[pos] != index for comp in _maximizing_complements(game, player)):
            return f"player {player + 1} does not force coordinate {c.group(1)}"
    return None
