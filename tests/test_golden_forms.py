"""Golden canonical forms: the printed form of seeded random expressions and
of the worked system's flag generators and closures, against a recorded
file.  The printed form exposes everything a change of representation can
move: the scaling of numerator and denominator, coefficient signs, the
grlex term order, and the order of kernel atoms, which comes from their
arguments' canonical keys.  The flag generators also carry the row
scalings of the function-field elimination.

Rewrite the file with `python tests/test_golden_forms.py` only when a
change of canonical form is intended.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from tflkit.expr import Expr, VariableSpace
from conftest import random_polynomial, random_rational

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_forms.json"
VS = VariableSpace.canonical(4, 2)
KINDS = ("sin", "cos", "exp", "ln")
SCALARS = (Fraction(3, 2), Fraction(-1, 7), Fraction(5, 3), Fraction(-2),
           Fraction(1, 12))


def _nonzero(rng, **kw):
    while True:
        e = random_polynomial(rng, VS, **kw)
        if not e.is_structural_zero():
            return e


def _kernel(rng, depth):
    """A kernel whose argument may hold kernels itself, `depth` deep."""
    arg = _nonzero(rng, degree=1, terms=2, kernels=depth > 0)
    if depth > 1:
        arg = arg + _kernel(rng, depth - 1) * random_rational(rng, den=7)
    return Expr.kernel(rng.choice(KINDS), arg)


def golden_expressions():
    rng = random.Random(20260)
    out = []
    for i in range(200):
        kind = i % 5
        if kind == 0:  # polynomials with rational coefficients
            e = random_polynomial(rng, VS, degree=3, terms=4) \
                * rng.choice(SCALARS)
        elif kind == 1:  # quotients
            e = _nonzero(rng, degree=3, terms=4) / _nonzero(rng, terms=3)
        elif kind == 2:  # quotients with a shared factor and a scalar
            f = _nonzero(rng, degree=1, terms=2)
            e = (_nonzero(rng, terms=3) * f * rng.choice(SCALARS)) \
                / (_nonzero(rng, terms=2) * f)
        elif kind == 3:  # kernels of the same kind with distinct arguments
            k = rng.choice(KINDS)
            e = (Expr.kernel(k, _nonzero(rng, degree=1, terms=2))
                 * _nonzero(rng, kernels=True)
                 + Expr.kernel(k, _nonzero(rng, degree=1, terms=2))
                 * rng.choice(SCALARS))
        else:  # nested kernels, over a polynomial denominator
            e = (_kernel(rng, 3) * _nonzero(rng, kernels=True)
                 + _kernel(rng, 2)) / _nonzero(rng, degree=1, terms=2)
        out.append(str(e))
    return out


def _ideals(ideals):
    return [[repr(g) for g in ideal.generators] for ideal in ideals]


def golden(sec5_flag, sec5_closures):
    return {"expressions": golden_expressions(),
            "sec5_flag": _ideals(sec5_flag.entries),
            "sec5_closures": _ideals(sec5_closures)}


def test_golden_canonical_forms(sec5_flag, sec5_closures):
    recorded = json.loads(GOLDEN.read_text())
    now = golden(sec5_flag, sec5_closures)
    assert len(recorded["expressions"]) == 200
    for i, (want, got) in enumerate(zip(recorded["expressions"],
                                        now["expressions"])):
        assert got == want, f"expression {i}"
    assert now["sec5_flag"] == recorded["sec5_flag"]
    assert now["sec5_closures"] == recorded["sec5_closures"]


if __name__ == "__main__":
    from conftest import make_sec5_system
    from tflkit.lift import lift_system
    from tflkit.pfaffian import derived_flag

    lifted = lift_system(make_sec5_system())
    flag = derived_flag(lifted.I0)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        golden(flag, [flag.closure(k) for k in range(6)]), indent=1) + "\n")
