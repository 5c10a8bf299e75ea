"""Per-module tracing for the benchmark's traced run.

`Tracer.install()` replaces public functions of `bergegames` at the module
or class attributes their callers look up with wrappers that record one
span (name, start, end, parent) per call; `uninstall()` puts the originals
back, so traced and untraced ops can alternate in one process.  No file of
the library changes.

Spans of the op in progress stay in memory in flat arrays.  When the op
ends they are folded into per-name totals: a span's self time is its
duration minus the time covered by its child spans.  The spans of the first
traced op of each kind are kept for `dump()`.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import defaultdict
from time import perf_counter

# (span name, module or class path, attribute).  Each attribute is the one
# the callers in the library look up at call time.
TRACED = (
    ("cli.main", "cli", "main"),
    ("gamefile.load_game", "cli", "load_game"),
    ("gamefile.parse_game", "gamefile", "parse_game"),
    ("game.Game.init", "game.Game", "__init__"),
    ("game.payoff", "game.Game", "payoff"),
    ("game.expected_payoff", "game.Game", "expected_payoff"),
    ("equilibria.best_support", "equilibria", "best_support"),
    ("equilibria.is_berge", "equilibria", "is_berge"),
    ("equilibria.is_nash", "equilibria", "is_nash"),
    ("equilibria.enumerate_pure_nash", "equilibria", "enumerate_pure_nash"),
    ("equilibria.enumerate_pure_berge", "equilibria", "enumerate_pure_berge"),
    ("equilibria.constant_sum", "equilibria", "constant_sum"),
    ("equilibria.own_payoff_independent", "equilibria", "own_payoff_independent"),
    ("search.grid_search_min_deficiency", "search", "grid_search_min_deficiency"),
    ("search.decide_berge_existence_oi222", "search", "decide_berge_existence_oi222"),
)

# Spans whose calls and self time are reported per op; the per-layer
# metric set in BENCHMARK.json is built from these plus the extra counters.
CALLS = ("gamefile.parse_game", "game.expected_payoff", "equilibria.best_support",
         "equilibria.is_berge", "equilibria.is_nash", "game.payoff",
         "search.decide_berge_existence_oi222")
SELF = ("gamefile.parse_game", "gamefile.load_game", "game.Game.init",
        "game.expected_payoff", "equilibria.best_support", "equilibria.is_berge",
        "equilibria.is_nash", "game.payoff", "equilibria.enumerate_pure_nash",
        "equilibria.enumerate_pure_berge", "equilibria.constant_sum",
        "equilibria.own_payoff_independent", "search.grid_search_min_deficiency",
        "search.decide_berge_existence_oi222", "cli.main")

KEEP_SPANS = 100_000   # per kept op, so a dump stays a few MB


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in CALLS:
        units[f"{name}.calls"] = "calls/op"
    for name in SELF:
        units[f"{name}.self_s"] = "s/op"
    units["gamefile.parse_game.records_per_s"] = "records/s"
    units["equilibria.best_support.distinct_ratio"] = "ratio"
    units["search.grid_search_min_deficiency.points"] = "points/op"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self, package):
        self._package = package
        self._originals = []
        self._names = []
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("q")
        self._stack = [-1]
        self.ops = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.records = 0
        self.points = 0
        self.distinct_args = 0
        self._args_seen = set()
        self.kept = {}

    def _resolve(self, path):
        obj = self._package
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _note(self, name):
        # Counters measured at the span boundary, from arguments and results.
        if name == "equilibria.best_support":
            def note(args, result):
                self._args_seen.add((args[1], args[2].probs))
        elif name == "gamefile.parse_game":
            def note(args, result):
                self.records += math.prod(result.strategy_counts)
        elif name == "search.grid_search_min_deficiency":
            def note(args, result):
                game, resolution = args[0], args[1]
                self.points += math.prod(math.comb(resolution + m - 1, m - 1)
                                         for m in game.strategy_counts)
        else:
            note = None
        return note

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (self._names, self._starts, self._ends,
                                               self._parents, self._stack)
        note = self._note(name)

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if note is not None:
                note(args, result)
            return result
        return traced

    def install(self):
        for name, owner_path, attr in TRACED:
            owner = self._resolve(owner_path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def end_op(self, kind):
        """Fold the spans of the op just finished into the totals."""
        n = len(self._starts)
        child = [0.0] * n
        for i in range(n):
            duration = self._ends[i] - self._starts[i]
            parent = self._parents[i]
            if parent >= 0:
                child[parent] += duration
            self.calls[self._names[i]] += 1
        for i in range(n):
            self.self_s[self._names[i]] += self._ends[i] - self._starts[i] - child[i]
        if kind not in self.kept:
            keep = min(n, KEEP_SPANS)
            self.kept[kind] = [(self._names[i], self._starts[i], self._ends[i],
                                self._parents[i]) for i in range(keep)]
        self.ops += 1
        self.distinct_args += len(self._args_seen)
        self._args_seen.clear()
        del self._names[:], self._starts[:], self._ends[:], self._parents[:]

    def metrics(self, overhead):
        ops = max(self.ops, 1)
        values = {}
        for name in CALLS:
            values[f"{name}.calls"] = self.calls[name] / ops
        for name in SELF:
            values[f"{name}.self_s"] = self.self_s[name] / ops
        parse_s = self.self_s["gamefile.parse_game"]
        values["gamefile.parse_game.records_per_s"] = self.records / parse_s if parse_s else 0.0
        bs_calls = self.calls["equilibria.best_support"]
        values["equilibria.best_support.distinct_ratio"] = (
            self.distinct_args / bs_calls if bs_calls else 0.0)
        values["search.grid_search_min_deficiency.points"] = self.points / ops
        values["trace.overhead"] = overhead
        return values

    def dump(self, path):
        """Write the kept spans as one JSON object per op kind."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "ops": self.kept}, fh)
