"""Pin the `check` and `solve` runs of the problems that take the sampled
path: the dynamic unicycle on the unit circle of bench/workloads.py
(`UNICYCLE`), whose N has a reduction leftover, and its two one-token edits
`f2 = x3*sin(x3)` and `N2 = x1*(x3) + x2*sin(x3)`.  Their samples on N are
Newton projections, their kernel-bearing coefficients are decided by the
sampling falsifier, and their derived steps rank the conditions in floats
at perturbed points.

Each run goes through `tflkit.cli.main` in-process, and its exit code and
the sha256 of its stdout and stderr are compared with
tests/data/sampled_digests.json.  Exits 1 on any mismatch.  Stdlib only
(besides tflkit itself), so it runs with sympy blocked as well.

    PYTHONPATH=src python tests/check_sampled_runs.py          # compare
    PYTHONPATH=src python tests/check_sampled_runs.py --write  # re-record
"""

import sys
import tempfile
from pathlib import Path

from check_sec5_edits import compare, run_cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "sampled_digests.json"
sys.path.insert(0, str(ROOT / "bench"))
from workloads import UNICYCLE  # noqa: E402

EDITS = (("f = x4*cos(x3), x4*sin(x3), 0, 0",
          "f = x4*cos(x3), x3*sin(x3), 0, 0"),
         ("N = x1^2 + x2^2 - 1, x1*cos(x3) + x2*sin(x3)",
          "N = x1^2 + x2^2 - 1, x1*(x3) + x2*sin(x3)"))


def problems():
    """(name, problem text): the unicycle, then each edit of it."""
    yield "unicycle", UNICYCLE
    for old, new in EDITS:
        assert UNICYCLE.count(old) == 1, old
        yield f"unicycle {new}", UNICYCLE.replace(old, new)


def run_all():
    """{"<problem> <command>": [exit code, sha256(stdout), sha256(stderr)]}."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sampled.tfl"
        for name, text in problems():
            path.write_text(text, encoding="utf-8")
            for command in ("check", "solve"):
                out[f"{name} {command}"] = run_cli(command, path)
    return out


def main(argv):
    got = run_all()
    bad = compare(got, DIGESTS, argv)
    if bad is None:
        return 0
    print(f"{len(got)} runs, {bad} mismatches; exit codes "
          + ", ".join(f"{key}: {code}" for key, (code, _, _) in got.items()))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
