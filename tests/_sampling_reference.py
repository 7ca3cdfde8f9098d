"""The sampled path's points as they were drawn before each decision began
reading only the points it needs, kept as test-only references: the Newton
loop that evaluated u* at every iterate, and the falsifier that drew its
points from a fresh random.Random(FALSIFIER_SEED) on every call.  The
package must give the same points, in value and type
(tests/test_sampling.py)."""

import random
from fractions import Fraction

import numpy as np

from tflkit.conditions import _ATTEMPTS_PER_SAMPLE, _state_point
from tflkit.errors import DomainError
from tflkit.expr import (_FALSIFIER_BOX, _FALSIFIER_DEN, FALSIFIER_SAMPLES,
                         FALSIFIER_SEED, FALSIFIER_TOL, Point, Zeroness)


def newton_samples(sys, count, radius=0.1, seed=0):
    """Newton projections onto N of Gaussian perturbations of x0, each
    iterate a full point with u = u*(x)."""
    rng = random.Random(seed)
    x0 = np.array([float(v) for v in sys.x0])
    grads = [sys.state_grad(phi) for phi in sys.N_defs]
    out = []
    attempts = 0
    while len(out) < count and attempts < _ATTEMPTS_PER_SAMPLE * count:
        attempts += 1
        x = x0 + np.array([rng.gauss(0.0, radius) for _ in range(len(x0))])
        for _ in range(50):
            p = _state_point(sys, [float(xi) for xi in x])
            vals = np.array([float(phi.eval(p)) for phi in sys.N_defs])
            if np.max(np.abs(vals)) <= 1e-12:
                out.append(p)
                break
            J = np.array([[float(g.eval(p)) for g in row] for row in grads])
            step, *_ = np.linalg.lstsq(J, vals, rcond=None)
            x = x - step
    return out


def falsifier_points(vars):
    """The FALSIFIER_SAMPLES points one call of the falsifier drew."""
    rng = random.Random(FALSIFIER_SEED)
    points = []
    for _ in range(FALSIFIER_SAMPLES):
        vals = []
        for _ in range(vars.total):
            q = rng.randint(1, _FALSIFIER_DEN)
            p = rng.randint(-_FALSIFIER_BOX * q, _FALSIFIER_BOX * q)
            vals.append(Fraction(p, q))
        points.append(Point(vars, vals))
    return points


def zeroness(e):
    """The falsifier's verdict on the kernel-bearing expression e, on the
    points of one fresh draw."""
    for p in falsifier_points(e.vars):
        try:
            v = e.eval(p)
        except DomainError:
            continue
        if isinstance(v, Fraction):
            if v != 0:
                return Zeroness.NONZERO
        elif abs(v) > FALSIFIER_TOL:
            return Zeroness.NONZERO
    return Zeroness.INCONCLUSIVE
