"""Benchmark of the `bergegames` CLI on seeded workloads.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each op is one in-process `bergegames.cli.main(argv)` call with stdout
captured, on a game document generated from the seed and written to a
scratch directory before the op.  One client runs ops back to back (a
closed loop); input generation and the oracle check of each answer stay
outside the timed region.  End-to-end timings come from batches of ops
during which a probe loop shows no slowdown from outside the process (see
`Gate`); the loop runs until those batches hold `--seconds` of op time.
The last line of stdout is one JSON object with the fields `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
ops with traced ops of the same kind and reports the per-module metrics of
the traced ones (see spans.py); `trace.overhead` is traced over untraced op
time.  `--workload all` runs every workload, untraced and traced, each in
its own process, and prints every metric by name with its unit.

The library is imported from `src/` next to this directory; without it the
run exits with a nonzero status before printing a result.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100          # so that at least ten samples lie beyond op_s.p90
SETUP_REPEATS = 5
SHOW_FAILURES = 5
BATCH_S = 0.02         # op time between two probes of the gate
QUIET = 1.5            # a slower probe marks a phase of outside load
CALIBRATION_PROBES = 20
WALL_FACTOR = 2        # the loop stops after this many times --seconds of wall time

END_TO_END = {"op_s.p50": "s", "op_s.p90": "s", "ops_per_s": "1/s",
              "setup_s": "s", "peak_rss_mib": "MiB"}

# Child process for setup_s: a cold interpreter imports the library and
# issues one warm-up call, which is what a CLI user waits for before the
# first real answer.
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bergegames.cli\n"
    "raise SystemExit(bergegames.cli.main(['info', sys.argv[2]]))\n"
)


def import_library():
    if not (SRC / "bergegames" / "__init__.py").is_file():
        sys.exit(f"error: the bergegames sources are missing from {SRC}")
    sys.path.insert(0, str(SRC))
    import bergegames.cli
    if Path(bergegames.__file__).resolve().parent != SRC / "bergegames":
        sys.exit(f"error: imported bergegames from {bergegames.__file__}, not {SRC}")
    return bergegames


def measure_setup(warmup_path: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(warmup_path)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.exit(f"error: set-up run failed with status {proc.returncode}: {proc.stderr}")
    return statistics.median(times)


class Gate:
    """Tells phases in which something outside this process slows the CPU.

    On shared hosts the same pure-Python loop runs at one speed for a while
    and about twice as slowly for the next tenths of a second.  A probe (a
    fixed `Fraction` loop of under a millisecond) before and after each
    batch of ops tells which phase the batch ran in: a batch is quiet when
    both probes take at most QUIET times the fastest probe of the run."""

    def __init__(self):
        self.fastest = math.inf
        for _ in range(CALIBRATION_PROBES):
            self.probe()

    def probe(self) -> float:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(i % 7, i % 11 + 1)
        elapsed = time.perf_counter() - start
        self.fastest = min(self.fastest, elapsed)
        return elapsed

    def quiet(self, *probes) -> bool:
        return max(probes) <= QUIET * self.fastest


class Runner:
    """Executes ops in this process and tallies failures."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.path = workdir / "game.json"
        self.attempted = 0
        self.failed = 0

    def run(self, op) -> float:
        self.path.write_text(op.doc, encoding="utf-8")
        argv = [op.command, str(self.path), *op.argv_tail]
        out, err = io.StringIO(), io.StringIO()
        problem = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, problem = None, "raised " + traceback.format_exc()
            elapsed = time.perf_counter() - start
        self.attempted += 1
        if problem is None:
            problem = op.check(code, out.getvalue())
        if problem is not None:
            self.failed += 1
            if self.failed <= SHOW_FAILURES:
                print(f"FAIL {op.kind} {argv!r}: {problem}\n{err.getvalue()}", file=sys.stderr)
        return elapsed


def run_untraced(workload, rng, seconds, runner, gate):
    """Batches of ops between gate probes, until the quiet batches hold
    `seconds` of op time and MIN_OPS ops, or the wall-time limit is hit.
    Returns (kind, op time) of every op in the quiet batches, judged against
    the fastest probe of the whole run, and the number of ops of each kind
    over all batches."""
    batches = []
    counts = Counter()
    kept_s = kept_ops = i = 0
    deadline = time.perf_counter() + WALL_FACTOR * seconds
    while (kept_s < seconds or kept_ops < MIN_OPS) and time.perf_counter() < deadline:
        before = gate.probe()
        timed = []
        while sum(t for _, t in timed) < BATCH_S:
            kind = workload.kind_at(rng, i)
            timed.append((kind, runner.run(workload.build(rng, kind))))
            counts[kind] += 1
            i += 1
        after = gate.probe()
        batches.append((before, after, timed))
        if gate.quiet(before, after):
            kept_s += sum(t for _, t in timed)
            kept_ops += len(timed)
    quiet = [op for before, after, timed in batches if gate.quiet(before, after) for op in timed]
    # With no quiet batch at all there is nothing better to report than every op.
    return quiet or [op for _, _, timed in batches for op in timed], counts


def mix_stats(quiet, counts):
    """Median, 90th percentile and mean op time of the quiet ops, each op
    weighted so that every kind keeps its share of all ops run.  Long ops
    land in a noisy batch more often than short ones; without the weights
    the quiet sample would lean to the short kinds."""
    by_kind = defaultdict(list)
    for kind, t in quiet:
        by_kind[kind].append(t)
    total = sum(counts[kind] for kind in by_kind)
    weighted = sorted((t, counts[kind] / total / len(times))
                      for kind, times in by_kind.items() for t in times)

    def quantile(q):
        # Nearest rank: the first time whose cumulative weight reaches q.
        acc = 0.0
        for t, w in weighted:
            acc += w
            if acc >= q * (1 - 1e-12):
                return t
        return weighted[-1][0]
    return quantile(0.5), quantile(0.9), sum(t * w for t, w in weighted)


def run_traced(workload, rng, seconds, runner, tracer):
    """Pairs of ops of one kind on distinct documents, the first untraced and
    the second traced, until both together have taken `seconds`."""
    plain = traced = 0.0
    i = 0
    while plain + traced < seconds:
        kind = workload.kind_at(rng, i)
        plain += runner.run(workload.build(rng, kind))
        op = workload.build(rng, kind)
        tracer.install()
        try:
            traced += runner.run(op)
        finally:
            tracer.uninstall()
        tracer.end_op(kind)
        i += 1
    return traced / plain


def run_one(args) -> int:
    library = import_library()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = HERE / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(library.cli, workdir)
        rng = random.Random(args.seed)
        if args.trace:
            tracer = spans.Tracer(library)
            overhead = run_traced(workload, rng, args.seconds, runner, tracer)
            outdir = HERE / "out"
            outdir.mkdir(exist_ok=True)
            tracer.dump(outdir / f"spans-{workload.name}-seed{args.seed}.json")
            values = tracer.metrics(overhead)
            units = spans.metric_units()
            print(f"traced ops: {tracer.ops}")
        else:
            warmup = workdir / "warmup.json"
            warmup.write_text(workloads.eq5_variant(random.Random(0)).doc(), encoding="utf-8")
            setup_s = measure_setup(warmup)
            gate = Gate()
            quiet, counts = run_untraced(workload, rng, args.seconds, runner, gate)
            print(f"ops: {sum(counts.values())}, of which {len(quiet)} in quiet batches "
                  f"({sum(t for _, t in quiet):.3f} s of op time)")
            if len(quiet) < MIN_OPS:
                print(f"warning: only {len(quiet)} ops in quiet batches, so fewer than "
                      "10 samples lie beyond op_s.p90", file=sys.stderr)
            p50, p90, mean = mix_stats(quiet, counts)
            values = {
                "op_s.p50": p50,
                "op_s.p90": p90,
                "ops_per_s": 1 / mean,
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"error_rate: {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} failed / {runner.attempted} attempted)")
    for name, unit in units.items():
        print(f"{name}: {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process each."""
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exited with status {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"== {name} (trace={trace}): {result['attempted']} ops attempted, "
                  f"{result['failed']} failed, error_rate "
                  f"{result['failed'] / result['attempted']:.6g}")
            for metric, entry in result["metrics"].items():
                print(f"{name}  {metric}  {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(["all", *workloads.WORKLOADS]))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
