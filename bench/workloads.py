"""Seeded workload definitions with hand-derived references.

A workload is an ordered list of problem runs.  Each run names a problem
text, the mode (`check` or `solve`) and the reference its result must meet.
The references below are derived by hand from the systems, not from tflkit:

* integrator chain `x_i' = x_{i+1} + c_i x_i^2`, `x_n' = u1`, N = origin:
  `h = x1` has relative degree n near 0 for every `c_i`, so kappa = [n],
  rho = [1] * n and every condition holds.
* double integrator, N = {x2 = 0}: kappa = [1], rho = [1].
* unicycle on the unit circle: `h = x1^2 + x2^2 - 1` gives
  `h'' = 2 x4 (-x1 sin x3 + x2 cos x3) u2 + ...` with coefficient 2 at x0,
  so kappa = [2], rho = [1, 1].
* `x1' = x2, x2' = u1, x3' = x3` with N = {x2 = 0, x3 = 0}: x3 is not
  reachable, so (Con) fails with rho = [1, 0], kappa = [1]; the system is
  linear, so (Inv) and (Dim) hold.
* the seven-state system of the paper: kappa = [3, 2], rho = [2, 2, 1, 0].

Each reference also carries a hand parametrization of N, used to evaluate
the reported output components at points of N (see `oracle.py`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path

WORKLOADS = ("sec5", "chain", "small-mix")

CHAIN_COEFFS = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Reference:
    exit_code: int
    kappa: tuple
    rho: tuple
    con: bool = True
    inv: bool = True
    dim: bool = True
    # points of N: a list of state tuples, built from a hand parametrization
    points_on_N: tuple = ()
    # shipped `*.expected.json` the solve report must equal byte for byte
    expected_json: str | None = None

    @property
    def solvable(self):
        return self.con and self.inv and self.dim


@dataclass(frozen=True)
class Problem:
    name: str
    text: str
    modes: tuple
    ref: Reference


@dataclass(frozen=True)
class KnownDefect:
    """A check that fails at the commit the benchmark was defined on.  It is
    still counted as a failed run; `correct` stays true only while every
    other check passes and this one fails, if at all, in this way only."""
    problem: str
    mode: str
    check: str
    why: str


KNOWN_DEFECTS = (
    KnownDefect("unicycle", "solve", "vanish",
                "the adapted output is rounded from float samples "
                "(limit_denominator) and does not vanish on N: its x1^2 and "
                "x2^2 coefficients differ by about 8.7e-10"),
)


def chain_text(coeffs):
    """Nonlinear integrator chain of length len(coeffs) + 1 with the origin
    as target."""
    n = len(coeffs) + 1
    xs = [f"x{i}" for i in range(1, n + 1)]
    f = []
    for i, c in enumerate(coeffs):
        sign = "-" if c < 0 else "+"
        f.append(f"{xs[i + 1]} {sign} {abs(c)}*{xs[i]}^2")
    f.append("0")
    return (f"# integrator chain, coefficients {list(coeffs)}\n"
            "[system]\n"
            f"states = {' '.join(xs)}\n"
            "inputs = u1\n"
            f"f = {', '.join(f)}\n"
            f"g1 = {', '.join(['0'] * (n - 1) + ['1'])}\n"
            "\n[target]\n"
            f"N = {', '.join(xs)}\n"
            f"x0 = {', '.join(['0'] * n)}\n"
            "u_star = 0\n")


def chain_problem(name, rng, n, modes):
    coeffs = [rng.choice(CHAIN_COEFFS) for _ in range(n - 1)]
    ref = Reference(exit_code=0, kappa=(n,), rho=(1,) * n,
                    points_on_N=((Q(0),) * n,))
    return Problem(name, chain_text(coeffs), modes, ref)


UNICYCLE = """\
# dynamic unicycle following the unit circle
[system]
states = x1 x2 x3 x4
inputs = u1 u2
f = x4*cos(x3), x4*sin(x3), 0, 0
g1 = 0, 0, 0, 1
g2 = 0, 0, 1, 0

[target]
N = x1^2 + x2^2 - 1, x1*cos(x3) + x2*sin(x3)
x0 = 0, 1, 0, 1
u_star = 0, -x4
"""

UNCONTROLLABLE = """\
# x3 is not reachable from u1: (Con) fails
[system]
states = x1 x2 x3
inputs = u1
f = x2, 0, x3
g1 = 0, 1, 0

[target]
N = x2, x3
x0 = 1, 0, 0
u_star = 0
"""


def _unicycle_points():
    # N through x0: (x1, x2) a rational point of the unit circle, so that
    # polynomial outputs evaluate exactly; heading x3 tangent to the circle
    # (cos x3 = x2, sin x3 = -x1, to double precision); speed x4 free
    out = []
    for t in (Q(0), Q(1, 3), Q(-2), Q(3, 5)):
        x1, x2 = 2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)
        theta = Q(math.atan2(-x1, x2))
        for speed in (Q(1), Q(1, 2)):
            out.append((x1, x2, theta, speed))
    return tuple(out)


def _sec5_points():
    # N = {x3 = x1^2 + x2^2, x4 = ... = x7 = 0}
    return tuple((a, b, a * a + b * b) + (Q(0),) * 4
                 for a, b in ((Q(2), Q(0)), (Q(1), Q(1)),
                              (Q(-1, 2), Q(3, 2))))


def _shipped(root: Path, stem):
    return (root / "problems" / f"{stem}.tfl").read_text(encoding="utf-8")


def build(workload: str, seed: int, root: Path):
    """The workload's problem list for `seed`, in run order."""
    rng = random.Random(seed)
    if workload == "sec5":
        ref = Reference(exit_code=0, kappa=(3, 2), rho=(2, 2, 1, 0),
                        points_on_N=_sec5_points(),
                        expected_json="paper-sec5.expected.json")
        return [Problem("paper-sec5", _shipped(root, "paper-sec5"),
                        ("solve",), ref)]
    if workload == "chain":
        return [chain_problem("chain8", rng, 8, ("solve",))]
    if workload == "small-mix":
        both = ("check", "solve")
        return [
            Problem("double-integrator", _shipped(root, "double-integrator"),
                    both, Reference(
                        exit_code=0, kappa=(1,), rho=(1,),
                        points_on_N=tuple((a, Q(0)) for a in
                                          (Q(1), Q(-1, 2), Q(3))),
                        expected_json="double-integrator.expected.json")),
            Problem("brunovsky-chain", _shipped(root, "brunovsky-chain"),
                    both, Reference(
                        exit_code=0, kappa=(3,), rho=(1, 1, 1),
                        points_on_N=((Q(0),) * 3,),
                        expected_json="brunovsky-chain.expected.json")),
            chain_problem("chain4", rng, 4, both),
            Problem("unicycle", UNICYCLE, both, Reference(
                exit_code=0, kappa=(2,), rho=(1, 1),
                points_on_N=_unicycle_points())),
            Problem("uncontrollable", UNCONTROLLABLE, both, Reference(
                exit_code=2, kappa=(1,), rho=(1, 0), con=False)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
