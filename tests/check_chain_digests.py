"""Pin the `check` and `solve` runs of 28 seeded nonlinear integrator chains
x_i' = x_(i+1) + c_i x_i^2, x_n' = u1, with the origin as target: for seeds
0 to 23, n = 3 + seed % 6 (each length from 3 to 8 four times), and four
larger chains, n = 10 at seeds 24 and 25 and n = 12 at seeds 26 and 27,
whose solve reports run to hundreds of KB and 2 MB of printed polynomials.
Each c_i is drawn from {-3, ..., 3} without 0 by random.Random(seed).

Each run goes through `tflkit.cli.main` in-process, and its exit code and
the sha256 of its stdout and stderr are compared with
tests/data/chain_digests.json.  Exits 1 on any mismatch.  Stdlib only
(besides tflkit itself), so it runs with sympy blocked as well.

    PYTHONPATH=src python tests/check_chain_digests.py          # compare
    PYTHONPATH=src python tests/check_chain_digests.py --write  # re-record
"""

import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from check_sec5_edits import compare, run_cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "chain_digests.json"
SEEDS = range(24)
LARGE = ((24, 10), (25, 10), (26, 12), (27, 12))    # (seed, n)
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def chain_text(coeffs):
    """The problem text of the chain with coefficients c_1 .. c_(n-1)."""
    n = len(coeffs) + 1
    xs = [f"x{i}" for i in range(1, n + 1)]
    f = [f"{xs[i + 1]} {'-' if c < 0 else '+'} {abs(c)}*{xs[i]}^2"
         for i, c in enumerate(coeffs)] + ["0"]
    return ("[system]\n"
            f"states = {' '.join(xs)}\n"
            "inputs = u1\n"
            f"f = {', '.join(f)}\n"
            f"g1 = {', '.join(['0'] * (n - 1) + ['1'])}\n"
            "\n[target]\n"
            f"N = {', '.join(xs)}\n"
            f"x0 = {', '.join(['0'] * n)}\n"
            "u_star = 0\n")


def chains():
    """(name, coefficients) for each seed, in order."""
    for seed, n in [(seed, 3 + seed % 6) for seed in SEEDS] + list(LARGE):
        rng = random.Random(seed)
        coeffs = [rng.choice(COEFFICIENTS) for _ in range(n - 1)]
        yield f"seed {seed} n {n} {coeffs}", coeffs


def run_all():
    """{"<chain> <command>": [exit code, sha256(stdout), sha256(stderr)]}."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain.tfl"
        for name, coeffs in chains():
            path.write_text(chain_text(coeffs), encoding="utf-8")
            for command in ("check", "solve"):
                out[f"{name} {command}"] = run_cli(command, path)
    return out


def main(argv):
    got = run_all()
    bad = compare(got, DIGESTS, argv)
    if bad is None:
        return 0
    codes = Counter(code for code, _, _ in got.values())
    print(f"{len(got)} runs, {bad} mismatches; exit codes "
          + ", ".join(f"{n}x{c}" for c, n in sorted(codes.items())))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
