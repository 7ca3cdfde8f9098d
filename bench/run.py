"""tflkit benchmark: seeded workloads, end-to-end solve metrics, and a traced
per-module run.

    python3 bench/run.py --workload sec5 --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from `src/`
of the checkout this file sits in.  Load model: closed loop, one client in
one process, no threads or subprocesses while timing.  A round runs the
workload's problem list once, in a fixed order; each problem run is
`load_problem` -> `cmd_check`/`cmd_solve` -> `dumps_report`.  Rounds repeat
until the next one would end after `--seconds`.

`--trace 0` reports the end-to-end metrics of untraced rounds, with times
converted to a reference host's speed by probes run inside each round
(`hostspeed.py`).  `--trace 1`
alternates untraced and traced rounds, reports per-module call counts and
self times (the median over traced rounds) and the tracing overhead, and
writes the spans to `bench/out/`.  Every run checks every output against
hand-written references (`workloads.py`, `oracle.py`).  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

import hostspeed
import workloads
from oracle import check_run
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_ROUNDS = 3          # untraced rounds with --trace 0
MIN_PAIRS = 2           # untraced + traced round pairs with --trace 1
SETUP_REPEATS = 7       # fresh interpreters timed for setup_s
SAMPLED = re.compile(r"samples only|inconclusive", re.IGNORECASE)

# a fresh interpreter: import tflkit and parse the problem files, between
# host-speed probes (the first probe runs cold and is dropped)
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
probes = [hostspeed.probe() for _ in range(3)][1:]
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import tflkit
from tflkit.problem import load_problem
for path in sys.argv[3:]:
    load_problem(path)
t1 = time.perf_counter()
probes += [hostspeed.probe() for _ in range(2)]
print(t1 - t0, (t1 - t0) * hostspeed.scale(probes))
"""

# per-layer metrics, by tracer counter
CALLS = [
    "expr.arith", "expr.diff", "expr.eval", "forms.exterior_derivative",
    "pfaffian.derived_flag", "pfaffian.derived_system",
    "pfaffian.rref_function_field", "pfaffian.augment_with_dt",
    "pfaffian.differential_closure", "pfaffian.ideal_membership",
    "lift.lie_f", "lift.lie_g", "lift.vanishes_on_N",
    "conditions.compute_closures", "integrate.frobenius_integrate",
    "numlin.rank", "numlin.intersection_dim",
]
ZERONESS = ["expr.zeroness.zero", "expr.zeroness.nonzero",
            "expr.zeroness.inconclusive"]
SELF_S = [
    "expr.eval", "forms.exterior_derivative", "pfaffian.derived_flag",
    "pfaffian.derived_system", "pfaffian.rref_function_field",
    "pfaffian.differential_closure", "pfaffian.ideal_membership",
    "lift.lift_system", "conditions.compute_closures",
    "conditions.check_dim", "conditions.dim_table", "conditions.check_inv",
    "conditions.sample_on_N", "conditions.evaluate_conditions",
    "integrate.frobenius_integrate", "integrate.adapt_subordinate",
    "integrate.adapt_to_L", "algorithm.vector_relative_degree",
    "algorithm.zero_dynamics_manifold", "algorithm.normal_form",
    "algorithm.dual_rd_check", "algorithm.run_tfl", "numlin.rank",
    "problem.load_problem", "problem.report_to_tree",
    "problem.dumps_report",
]
DISTINCT = ["pfaffian.augment_with_dt", "lift.lie_f"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_tflkit():
    sys.path.insert(0, str(SRC))
    import tflkit
    from tflkit import problem
    if Path(tflkit.__file__).resolve().parent != SRC / "tflkit":
        raise ImportError(f"tflkit imported from {tflkit.__file__}, "
                          f"not from {SRC}")
    return problem


def setup_seconds(paths):
    """Wall and reference-host seconds of set-up, each the median over
    fresh interpreters."""
    cmd = [sys.executable, "-I", "-c", SETUP_SNIPPET, str(BENCH), str(SRC),
           *map(str, paths)]
    wall, ref = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=True, timeout=120)
        if i:       # the first one may write bytecode caches
            w, r = map(float, done.stdout.split()[-2:])
            wall.append(w)
            ref.append(r)
    return median(wall), median(ref)


class Bench:
    def __init__(self, tp, problems, paths):
        self.tp = tp
        self.runs = [(prob, mode, path)
                     for prob, path in zip(problems, paths)
                     for mode in prob.modes]
        self.attempted = 0
        self.failed = 0
        self.unexpected = Counter()    # (problem, mode, check) -> runs
        self.known = Counter()
        self.exit0 = 0
        self.sampled = 0

    def round(self, tracer=None, probing=None):
        """Run the problem list once, inside `probing` if given; returns
        wall seconds.  Outputs are checked after the clock stops."""
        tp = self.tp
        results = []
        t0 = perf_counter()
        with probing or nullcontext():
            for prob, mode, path in self.runs:
                if tracer is not None:
                    tracer.begin_problem()
                try:
                    problem = tp.load_problem(path)
                    cmd = tp.cmd_check if mode == "check" else tp.cmd_solve
                    _, tree, code = cmd(problem)
                    results.append((tree, tp.dumps_report(tree)))
                except Exception:   # a crash is a failed run, not the end
                    traceback.print_exc(file=sys.stderr)
                    results.append(None)
        elapsed = perf_counter() - t0
        for (prob, mode, _), result in zip(self.runs, results):
            self.check(prob, mode, result)
        return elapsed

    def check(self, prob, mode, result):
        self.attempted += 1
        if result is None:
            failed = ["error"]
        else:
            tree, text = result
            failed = check_run(prob, mode, tree, text, ROOT / "problems")
            if tree["exit_code"] == 0:
                self.exit0 += 1
                if any(SAMPLED.search(w) for w in tree["warnings"]):
                    self.sampled += 1
        if failed:
            self.failed += 1
        for name in failed:
            known = any((d.problem, d.mode, d.check) == (prob.name, mode, name)
                        for d in workloads.KNOWN_DEFECTS)
            (self.known if known else self.unexpected)[
                (prob.name, mode, name)] += 1


def measure_untraced(bench, seconds):
    """Wall seconds of each round, and each round's time in reference-host
    seconds, both less the time of the host-speed probes run inside it."""
    times, scaled, walls = [], [], []
    hostspeed.probe()           # the first probe runs cold
    start = perf_counter()
    while (len(times) < MIN_ROUNDS
           or perf_counter() - start + median(walls) <= seconds):
        probing = hostspeed.Probing()
        walls.append(bench.round(probing=probing))
        times.append(probing.seconds)
        scaled.append(probing.seconds * probing.scale)
    return times, scaled


def measure_traced(bench, seconds):
    """Alternate untraced and traced rounds.  Round times and self times
    are in reference-host seconds, less the host-speed probes run inside
    each round (the tracer's clock leaves them out)."""
    tracer = Tracer()
    plain, traced, per_round, walls = [], [], [], []
    hostspeed.probe()           # the first probe runs cold
    start = perf_counter()
    while (len(traced) < MIN_PAIRS
           or perf_counter() - start + median(walls) <= seconds):
        pair_start = perf_counter()
        probing = hostspeed.Probing()
        bench.round(probing=probing)
        plain.append(probing.seconds * probing.scale)
        before = tracer.snapshot()
        probing = hostspeed.Probing()
        tracer.round = len(traced)
        tracer.clock = probing.clock
        tracer.install()
        try:
            bench.round(tracer, probing)
        finally:
            tracer.uninstall()
        traced.append(probing.seconds * probing.scale)
        after = tracer.snapshot()
        per_round.append((after[0] - before[0],
                          {k: (v - before[1].get(k, 0.0)) * probing.scale
                           for k, v in after[1].items()}))
        walls.append(perf_counter() - pair_start)
    return tracer, plain, traced, per_round


def per_layer_metrics(tracer, plain, traced, per_round):
    m = {}
    for name in CALLS:
        m[f"{name}.calls"] = (median_low(r[0][name] for r in per_round),
                              "count")
    for name in ZERONESS:
        m[name] = (median_low(r[0][name] for r in per_round), "count")
    for name in SELF_S:
        m[f"{name}.s"] = (median(r[1].get(name, 0.0) for r in per_round),
                          "s")
    m["pfaffian.derived_system.max_gens"] = (tracer.max_gens, "count")
    for name in DISTINCT:
        calls = tracer.calls[name]
        m[f"{name}.distinct_frac"] = (
            tracer.distinct[name] / calls if calls else 1.0, "ratio")
    m["trace.overhead_frac"] = (median(traced) / median(plain) - 1, "ratio")
    return m


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tflkit" / "__init__.py").is_file():
        print(f"error: no tflkit sources under {SRC}", file=sys.stderr)
        return 2
    try:
        problems = workloads.build(args.workload, args.seed, ROOT)
        tp = import_tflkit()
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    paths = []
    for prob in problems:
        path = OUT / f"{args.workload}-seed{args.seed}-{prob.name}.tfl"
        path.write_text(prob.text, encoding="utf-8")
        paths.append(path)
    bench = Bench(tp, problems, paths)

    if args.trace:
        tracer, plain, traced, per_round = measure_traced(bench, args.seconds)
        metrics = per_layer_metrics(tracer, plain, traced, per_round)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}"
                                 ".jsonl")
        same = all(r[0] == per_round[0][0] for r in per_round)
        print(f"{len(traced)} traced + {len(plain)} untraced rounds; "
              f"call counts identical across traced rounds: {same}; "
              f"{len(tracer.spans)} spans written to {OUT}")
    else:
        setup_wall, setup = setup_seconds(paths)
        times, scaled = measure_untraced(bench, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        fail_frac = bench.failed / bench.attempted
        sampled_frac = bench.sampled / bench.exit0 if bench.exit0 else 0.0
        metrics = {
            "round_p50_s": (median(scaled), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "pass_frac": (1 - fail_frac, "ratio"),
            "exact_frac": (1 - sampled_frac, "ratio"),
        }
        print(f"{len(times)} rounds; wall seconds "
              f"{[round(t, 3) for t in times]} (median {median(times):.4f}); "
              f"reference-host seconds {[round(t, 3) for t in scaled]}; "
              f"set-up wall {setup_wall:.4f} s; "
              f"fail_frac {fail_frac:.4f} "
              f"({bench.failed}/{bench.attempted}); sampled_frac "
              f"{sampled_frac:.4f} ({bench.sampled}/{bench.exit0})")
    why = {(d.problem, d.mode, d.check): d.why
           for d in workloads.KNOWN_DEFECTS}
    for key, n in sorted(bench.known.items()):
        print(f"known defect: {key[0]} {key[1]} fails '{key[2]}' in {n} "
              f"runs: {why[key]}")
    for (prob, mode, check), n in sorted(bench.unexpected.items()):
        print(f"FAILED: {prob} {mode} fails '{check}' in {n} runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not bench.unexpected,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
