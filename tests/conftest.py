"""Shared fixtures: the worked seven-state system, small textbook plants,
and seeded random generators for the property suites."""

import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

import tflkit.expr as expr
from tflkit.expr import Expr, Point, VariableSpace, parse_expr
from tflkit.forms import KForm, coordinate_form
from tflkit.lift import ControlSystem, lift_system
from tflkit.pfaffian import PfaffianIdeal, derived_flag
from tflkit.algorithm import run_tfl
from tflkit.problem import cmd_solve, load_problem
from _brackets import VectorField

SEC5_FILE = Path(__file__).resolve().parent.parent / "problems" \
    / "paper-sec5.tfl"

# pytest puts src/ on sys.path (pyproject `pythonpath`); the subprocesses
# that run `python -m tflkit` need it on PYTHONPATH as well
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p and p != _SRC])


def make_sec5_system():
    vs = VariableSpace.canonical(7, 2)
    E = lambda s: parse_expr(s, vs)
    f = [E(s) for s in ["-x2", "x1", "x3*x4", "0", "x6",
                        "x7 + x6 - x3*x5", "x5"]]
    g = [[E(s) for s in ["0", "0", "x3", "1", "0", "0", "0"]],
         [E(s) for s in ["-x2", "0", "0", "0", "-x1", "x1", "x1"]]]
    N = [E(s) for s in ["x1^2 + x2^2 - x3", "x4", "x5", "x6", "x7"]]
    return ControlSystem(vs, f, g, N, [2, 0, 4, 0, 0, 0, 0],
                         [E("0"), E("0")])


@pytest.fixture(scope="session")
def sec5():
    return make_sec5_system()


@pytest.fixture(scope="session")
def sec5_lifted(sec5):
    return lift_system(sec5)


@pytest.fixture(scope="session")
def sec5_flag(sec5_lifted):
    return derived_flag(sec5_lifted.I0)


@pytest.fixture(scope="session")
def sec5_closures(sec5_flag):
    return [sec5_flag.closure(k) for k in range(6)]


@pytest.fixture(scope="session")
def sec5_report(sec5):
    """One run_tfl solve of the worked system, shared by the tests that
    only read its report."""
    return run_tfl(sec5)


@pytest.fixture(scope="session")
def sec5_solved():
    """One cmd_solve of problems/paper-sec5.tfl: (report, tree, code)."""
    return cmd_solve(load_problem(SEC5_FILE))


def make_double_integrator():
    vs = VariableSpace.canonical(2, 1)
    E = lambda s: parse_expr(s, vs)
    return ControlSystem(vs, [E("x2"), E("0")], [[E("0"), E("1")]],
                         [E("x2")], [1, 0], [E("0")])


def make_chain3():
    vs = VariableSpace.canonical(3, 1)
    E = lambda s: parse_expr(s, vs)
    return ControlSystem(vs, [E("x2"), E("x3"), E("0")],
                         [[E("0"), E("0"), E("1")]],
                         [E("x1"), E("x2"), E("x3")], [0, 0, 0], [E("0")])


def make_chain8():
    """x_i' = x_(i+1) + c_i x_i^2, x_8' = u1, N = the origin."""
    vs = VariableSpace.canonical(8, 1)
    P = lambda s: parse_expr(s, vs)
    cs = [1, -2, 3, -1, 2, -3, 1]
    f = [P(f"x{i + 1} + {c}*x{i}^2") for i, c in enumerate(cs, start=1)]
    g = [[P("0")] * 7 + [P("1")]]
    return ControlSystem(vs, f + [P("0")], g,
                         [P(f"x{i}") for i in range(1, 9)], [0] * 8,
                         [P("0")])


@pytest.fixture(scope="session")
def double_integrator():
    return make_double_integrator()


@pytest.fixture(scope="session")
def chain3():
    return make_chain3()


# -- the monomial format of expr's integer polynomials ------------------------

def decode(P):
    """An integer polynomial of expr as {monomial: coefficient}, each
    monomial a tuple of (atom, exponent) pairs sorted by atom: (0, i) for
    variable i, then kernel atoms (1, kind, fingerprint)."""
    return {expr._mono_pairs(m): c for m, c in P.items()}


def encode_monomial(vars0, pairs):
    """The packed monomial of (atom, exponent) pairs over vars0: one field
    per variable below the total degree, and kernel atoms in a sorted
    tail."""
    v, tail = 0, []
    for atom, e in pairs:
        if atom[0] == 0:
            v += e * vars0._units[atom[1]]
        else:
            v += e * vars0._degree_unit
            tail.append((atom, e))
    return expr._KMono(v, tuple(sorted(tail))) if tail else v


def encode(vars0, P):
    """The inverse of decode over vars0."""
    return {encode_monomial(vars0, m): c for m, c in P.items()}


# -- seeded random generators -------------------------------------------------

def random_rational(rng, box=3, den=4):
    q = rng.randint(1, den)
    return Fraction(rng.randint(-box * q, box * q), q)


def random_polynomial(rng, vars0, degree=2, terms=3, kernels=False):
    e = Expr.rational(vars0, random_rational(rng))
    for _ in range(rng.randint(1, terms)):
        term = Expr.rational(vars0, random_rational(rng))
        for _ in range(rng.randint(0, degree)):
            i = rng.randrange(vars0.total)
            term = term * Expr.var_index(vars0, i)
        if kernels and rng.random() < 0.25:
            arg = Expr.var_index(vars0, rng.randrange(vars0.total))
            kind = rng.choice(("exp", "sin", "cos"))
            term = term * Expr.kernel(kind, arg)
        e = e + term
    return e


def random_one_form(rng, vars0, **kw):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(vars0.total)
        terms[(i,)] = random_polynomial(rng, vars0, **kw)
    return KForm(vars0, 1, {k: v for k, v in terms.items()
                            if not v.is_structural_zero()})


def random_two_form(rng, vars0, **kw):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(vars0.total)
        j = rng.randrange(vars0.total)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        terms[key] = random_polynomial(rng, vars0, **kw)
    return KForm(vars0, 2, {k: v for k, v in terms.items()
                            if not v.is_structural_zero()})


def random_vector_field(rng, vars0, **kw):
    return VectorField(vars0, [random_polynomial(rng, vars0, **kw)
                               for _ in range(vars0.total)])


def random_point(rng, vars0):
    return Point(vars0, [random_rational(rng) for _ in range(vars0.total)])
