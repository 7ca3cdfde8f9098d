"""Cross-cutting algebraic properties beyond the per-module checks."""

import random

import numpy as np

import tflkit.numlin as numlin
from tflkit.expr import Expr, VariableSpace, Zeroness
from tflkit.forms import exterior_derivative, wedge
from tflkit.pfaffian import PfaffianIdeal, derived_flag
from conftest import (random_one_form, random_point, random_polynomial,
                      random_two_form, random_vector_field)
from _brackets import contract, lie_derivative
from _pointwise import pointwise_span

VS = VariableSpace.canonical(3, 1)


def test_wedge_associativity():
    rng = random.Random(41)
    for _ in range(60):
        a = random_one_form(rng, VS)
        b = random_one_form(rng, VS)
        c = random_one_form(rng, VS)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).is_structural_zero()


def test_dd_zero_on_two_forms():
    rng = random.Random(43)
    for _ in range(60):
        a = random_two_form(rng, VS, kernels=True)
        assert exterior_derivative(exterior_derivative(a)).is_structural_zero()


def test_contraction_nilpotent():
    rng = random.Random(47)
    for _ in range(60):
        X = random_vector_field(rng, VS)
        a = random_two_form(rng, VS)
        assert contract(X, contract(X, a)).is_structural_zero()


def test_lie_derivative_is_a_derivation():
    rng = random.Random(53)
    for _ in range(60):
        X = random_vector_field(rng, VS)
        f = random_polynomial(rng, VS)
        g = random_polynomial(rng, VS)
        lhs = lie_derivative(X, f * g)
        rhs = lie_derivative(X, f) * g + f * lie_derivative(X, g)
        assert (lhs - rhs).is_structural_zero()


def test_nonzero_verdicts_are_sound():
    """Whenever is_zero says NonZero, some rational point evaluates away
    from zero."""
    rng = random.Random(59)
    hits = 0
    for _ in range(120):
        e = random_polynomial(rng, VS, kernels=True)
        if e.zeroness() != Zeroness.NONZERO:
            continue
        found = False
        for _ in range(64):
            p = random_point(rng, VS)
            try:
                v = e.eval(p)
            except Exception:
                continue
            if abs(float(v)) > 1e-12:
                found = True
                break
        assert found, f"NonZero verdict with no witnessing point: {e}"
        hits += 1
    assert hits > 60


def test_differential_ideals_are_flag_fixed_points():
    rng = random.Random(61)
    from tflkit.forms import coordinate_form
    for _ in range(20):
        p0 = random_point(rng, VS)
        idxs = sorted(rng.sample(range(VS.total), rng.randint(1, 3)))
        gens = [coordinate_form(VS, i) for i in idxs]
        flag = derived_flag(PfaffianIdeal(gens, p0))
        assert len(flag.entries) == 1
        assert flag.generator_counts() == (len(idxs),)


def test_pointwise_span_rank_matches_generator_count():
    rng = random.Random(67)
    from tflkit.forms import coordinate_form
    for _ in range(20):
        p0 = random_point(rng, VS)
        idxs = sorted(rng.sample(range(VS.total), rng.randint(1, 4)))
        gens = [coordinate_form(VS, i)
                + coordinate_form(VS, (i + 1) % VS.total).scale(
                    random_polynomial(rng, VS, degree=1))
                for i in idxs]
        try:
            ideal = PfaffianIdeal(gens, p0)
        except Exception:
            continue
        assert pointwise_span(ideal, p0).shape[0] == len(ideal)
