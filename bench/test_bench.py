"""Tests of the benchmark itself: the oracle against the library, the checkers
against wrong answers, the tracer's self-time accounting, and the report.

    python3 -m pytest -q bench
"""

import io
import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

bergegames = run.import_library()
from bergegames import Game, MixedProfile, MixedStrategy, equilibria, search  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def library_game(g: workloads.GeneratedGame) -> Game:
    return Game(g.counts, g.table, g.names)


def small_games(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        counts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        yield workloads.make_game(counts, lambda p, j: Fraction(rng.randint(-3, 3),
                                                                rng.randint(1, 4))), rng


def test_pure_structure_matches_library():
    for g, _ in small_games(1, 150):
        lib, orc = library_game(g), g.scaled()
        assert orc.pure_nash() == equilibria.enumerate_pure_nash(lib)
        assert orc.pure_berge() == equilibria.enumerate_pure_berge(lib)
        assert orc.constant_sum() == equilibria.constant_sum(lib)
        assert tuple(orc.own_payoff_independent()) == equilibria.own_payoff_independent(lib)


def test_deficiency_matches_library():
    for g, rng in small_games(2, 150):
        probs = [workloads.random_probs(rng, m) for m in g.counts]
        profile = MixedProfile(tuple(MixedStrategy(p) for p in probs))
        lib = library_game(g)
        assert g.scaled().deficiency(probs, "berge") == equilibria.is_berge(lib, profile).deficiency
        assert g.scaled().deficiency(probs, "nash") == equilibria.is_nash(lib, profile).deficiency


def test_decide_oracle_matches_library():
    rng = random.Random(3)
    outcomes = set()
    for _ in range(80):
        g = workloads.oi222_game(rng)
        exists = oracle.decide_exists(g.scaled())
        assert exists == search.decide_berge_existence_oi222(library_game(g)).exists
        outcomes.add(exists)
    assert outcomes == {True, False}
    for _ in range(8):
        assert not oracle.decide_exists(workloads.eq5_variant(rng).scaled())


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS.values():
        docs = []
        for _ in range(2):
            rng = random.Random(7)
            docs.append([workload.build(rng, workload.kind_at(rng, i)).doc for i in range(4)])
        assert docs[0] == docs[1]
        assert len(set(docs[0])) == 4


def run_op(op, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(op.doc, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = bergegames.cli.main([op.command, str(path), *op.argv_tail])
    return code, out.getvalue()


def every_kind(seed):
    rng = random.Random(seed)
    for workload in workloads.WORKLOADS.values():
        for kind in workload.builders:
            yield workload.build(rng, kind)


def test_library_answers_pass_every_checker(tmp_path):
    for op in every_kind(4):
        code, out = run_op(op, tmp_path)
        assert op.check(code, out) is None, op.kind


def corrupt(kind, out):
    """A plausible but wrong version of a correct answer."""
    lines = out.splitlines(keepends=True)
    if kind == "search":
        return out.replace("deficiency ", "deficiency 1", 1)
    if kind == "info":
        return out.replace("strategies", "strategy", 1)
    if kind.startswith("pure-"):
        return "".join(lines[1:]) if len(lines) > 1 else "A1 B1 C1 D1\n" + out
    if kind.startswith("check-"):
        return out.replace("deficiency: ", "deficiency: 1", 1)
    if "outcome: exists" in out:
        return out.replace("outcome: exists", "outcome: not-exists")
    return out.replace("outcome: not-exists", "outcome: exists")


def test_wrong_answers_are_failures(tmp_path):
    for op in every_kind(5):
        code, out = run_op(op, tmp_path)
        wrong = corrupt(op.kind, out)
        assert wrong != out
        assert op.check(code, wrong) is not None, op.kind
        assert op.check(99, out) is not None, op.kind


def test_bad_decide_certificates_are_failures(tmp_path):
    rng = random.Random(6)
    op = workloads.decide_op(rng, "eq5")
    code, out = run_op(op, tmp_path)
    assert "conflict: coordinate" in out
    # Swapping the two players makes each claim the other's forced value.
    swapped = re.sub(r"by player (\d) and to 1 by player (\d)",
                     r"by player \2 and to 1 by player \1", out)
    assert swapped != out and op.check(code, swapped) is not None

    half = (Fraction(0), Fraction(1, 2), Fraction(1))
    while True:
        g = workloads.oi222_game(rng)
        game = g.scaled()
        bad = [point for point in itertools.product(half, repeat=3)
               if game.deficiency([(x, 1 - x) for x in point], "berge") != 0]
        if oracle.decide_exists(game) and bad:
            break
    code, out = run_op(workloads.Op("decide", [], "decide-berge", g.doc(), None), tmp_path)
    assert oracle.check_decide(game, code, out) is None
    wrong = re.sub(r"witness: .*", "witness: " + oracle.fmt_profile([(x, 1 - x) for x in bad[0]]),
                   out)
    assert oracle.check_decide(game, code, wrong) is not None


class WrongCli:
    """Stands in for the CLI module and prints a wrong count."""

    @staticmethod
    def main(argv):
        print("count: -1")
        return 0


def test_runner_counts_wrong_output_and_exceptions(tmp_path):
    rng = random.Random(8)
    runner = run.Runner(WrongCli, tmp_path)
    runner.run(workloads.enumerate_op(rng, "nash"))

    class Raising:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")
    raising = run.Runner(Raising, tmp_path)
    raising.run(workloads.info_op(rng))
    assert (runner.attempted, runner.failed) == (1, 1)
    assert (raising.attempted, raising.failed) == (1, 1)


def test_mix_stats_keeps_each_kind_share():
    # Half the ops run were "long", but only one long op was quiet: weighted,
    # it still stands for half of the sample.
    quiet = [("short", 1.0)] * 9 + [("long", 10.0)]
    p50, p90, mean = run.mix_stats(quiet, {"short": 50, "long": 50})
    assert (p50, p90, mean) == (1.0, 10.0, pytest.approx(5.5))
    p50, p90, mean = run.mix_stats([("a", t) for t in range(1, 11)], {"a": 10})
    assert (p50, p90, mean) == (5, 9, pytest.approx(5.5))


def test_self_times_partition_the_op(tmp_path):
    rng = random.Random(9)
    tracer = spans.Tracer(bergegames)
    runner = run.Runner(bergegames.cli, tmp_path)
    original = bergegames.equilibria.best_support
    tracer.install()
    try:
        assert bergegames.equilibria.best_support is not original
        runner.run(workloads.search_op(rng))
    finally:
        tracer.uninstall()
    assert bergegames.equilibria.best_support is original
    tracer.end_op("search")
    root = tracer.kept["search"][0]
    assert root[0] == "cli.main" and root[3] == -1
    assert sum(tracer.self_s.values()) == pytest.approx(root[2] - root[1], rel=1e-9)
    values = tracer.metrics(overhead=1.0)
    assert set(values) == set(spans.metric_units())
    assert values["equilibria.is_berge.calls"] == 216
    assert values["equilibria.best_support.calls"] == 648
    assert values["equilibria.best_support.distinct_ratio"] == pytest.approx(18 / 648)
    assert runner.failed == 0


def test_one_command_prints_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "all",
                           "--seed", "1", "--seconds", "0.3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for workload in spec["workloads"]:
        name = workload["name"]
        assert any(line.startswith(f"== {name} ") and "error_rate 0" in line for line in lines)
        for metric in spec["end_to_end"] + spec["per_layer"]:
            assert any(line.startswith(f"{name}  {metric['name']}  ")
                       and line.endswith(" " + metric["unit"]) for line in lines), \
                (name, metric["name"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
