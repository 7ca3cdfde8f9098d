"""Wedge, exterior derivative, contraction, Lie operations."""

import random

import numpy as np
import pytest

from tflkit.errors import DegreeOverflow
from tflkit.expr import Point, VariableSpace, Zeroness, parse_expr
from tflkit.forms import (KForm, coordinate_form, d_of_function,
                          exterior_derivative, wedge)
from conftest import (random_polynomial, random_one_form, random_two_form,
                      random_vector_field, random_point)
from _brackets import (VectorField, contract, coordinate_field, f_field,
                       g_fields, lie_bracket, lie_derivative)

VS = VariableSpace.canonical(7, 2)
E = lambda s: parse_expr(s, VS)
DX = lambda nm: coordinate_form(VS, nm)


class TestWedge:
    def test_square_is_zero(self):
        assert wedge(DX("x1"), DX("x1")).is_structural_zero()

    def test_antisymmetry(self):
        a, b = DX("x1"), DX("x2")
        assert (wedge(a, b) + wedge(b, a)).is_structural_zero()

    def test_graded_commutativity_random(self):
        rng = random.Random(3)
        for _ in range(40):
            a = random_one_form(rng, VS)
            b = random_two_form(rng, VS)
            # deg 1 * deg 2: a^b = (-1)^2 b^a
            assert (wedge(a, b) - wedge(b, a)).is_structural_zero()

    def test_two_state_hand_expansion(self):
        # omega = dx1 - x2 dt on the double integrator:
        # d(omega) = dt ^ d(L_f x1) with L_f x1 = x2
        vs = VariableSpace.canonical(2, 1)
        dt = coordinate_form(vs, "t")
        om = coordinate_form(vs, "x1") - dt.scale(parse_expr("x2", vs))
        lhs = exterior_derivative(om)
        rhs = wedge(dt, d_of_function(parse_expr("x2", vs)))
        assert (lhs - rhs).is_structural_zero()

    def test_degree_overflow(self):
        vs = VariableSpace.canonical(1, 1)  # dim 3
        a = wedge(coordinate_form(vs, 0), coordinate_form(vs, 1))
        b = wedge(coordinate_form(vs, 2), coordinate_form(vs, 1))
        with pytest.raises(DegreeOverflow):
            wedge(a, b)


class TestExteriorDerivative:
    def test_textbook(self):
        a = DX("x2").scale(E("x1"))
        assert (exterior_derivative(a) - wedge(DX("x1"), DX("x2"))).is_structural_zero()

    def test_dd_zero_random(self):
        rng = random.Random(17)
        for _ in range(50):
            a = random_one_form(rng, VS, kernels=True)
            assert exterior_derivative(exterior_derivative(a)).is_structural_zero()

    def test_worked_system_omega3(self):
        dt = DX("t")
        om3 = DX("x3") - dt.scale(E("x3*x4 + x3*u1"))
        expected = (wedge(DX("x3"), dt).scale(E("-(x4 + u1)"))
                    + wedge(DX("x4"), dt).scale(E("-x3"))
                    + wedge(DX("u1"), dt).scale(E("-x3")))
        assert (exterior_derivative(om3) - expected).is_structural_zero()

    def test_leibniz_over_wedge(self):
        rng = random.Random(23)
        for _ in range(25):
            a = random_one_form(rng, VS)
            b = random_one_form(rng, VS)
            lhs = exterior_derivative(wedge(a, b))
            rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
            assert (lhs - rhs).is_structural_zero()


class TestContract:
    def test_dual_pairing(self):
        assert contract(coordinate_field(VS, "x1"), DX("x1")).coefficient(()) == E("1")

    def test_dt_wedge(self):
        got = contract(coordinate_field(VS, "t"), wedge(DX("t"), DX("x1")))
        assert (got - DX("x1")).is_structural_zero()

    def test_graded_leibniz(self):
        # i_X(a^b) = (i_X a) b - (i_X b) a for one-forms
        rng = random.Random(29)
        for _ in range(30):
            X = random_vector_field(rng, VS)
            a = random_one_form(rng, VS)
            b = random_one_form(rng, VS)
            lhs = contract(X, wedge(a, b))
            rhs = b.scale(contract(X, a).coefficient(())) \
                - a.scale(contract(X, b).coefficient(()))
            assert (lhs - rhs).is_structural_zero()


class TestLie:
    def test_constant(self):
        X = coordinate_field(VS, "x1")
        assert lie_derivative(X, E("1")).is_structural_zero()

    def test_worked_first_derivative(self, sec5_lifted):
        got = lie_derivative(f_field(sec5_lifted), E("x5 + x7"))
        assert got == E("x6 + x5")

    def test_worked_second_derivative(self, sec5_lifted):
        f = f_field(sec5_lifted)
        got = lie_derivative(f, lie_derivative(f, E("x5 + x7")))
        assert got == E("-x3*x5 + 2*x6 + x7")

    def test_cartan_formula_random(self):
        rng = random.Random(31)
        for _ in range(30):
            X = random_vector_field(rng, VS)
            a = random_one_form(rng, VS)
            lhs = lie_derivative(X, a)
            rhs = contract(X, exterior_derivative(a)) \
                + exterior_derivative(contract(X, a))
            assert (lhs - rhs).is_structural_zero()


class TestBracket:
    def test_coordinate_fields_commute(self):
        X = coordinate_field(VS, "x1")
        Y = coordinate_field(VS, "x2")
        assert lie_bracket(X, Y).is_structural_zero()

    def test_double_integrator(self):
        vs = VariableSpace.canonical(2, 1)
        f = VectorField.from_state_components(
            vs, [parse_expr("x2", vs), parse_expr("0", vs)])
        g = VectorField.from_state_components(
            vs, [parse_expr("0", vs), parse_expr("1", vs)])
        br = lie_bracket(f, g)
        assert br.components[vs.index("x1")] == parse_expr("-1", vs)
        assert br.components[vs.index("x2")].is_structural_zero()

    def test_worked_bracket_finite_differences(self, sec5_lifted):
        """[g1, g2] against a central-difference approximation at x0."""
        ls = sec5_lifted
        g = g_fields(ls)
        br = lie_bracket(g[0], g[1])
        p0 = ls.p0
        h = 1e-5
        n = ls.vars.total

        def flow_field(X, p):
            return X.at(p)

        approx = np.zeros(n)
        g1v = g[0].at(p0)
        g2v = g[1].at(p0)
        # [X, Y] = DY X - DX Y via directional finite differences
        def directional(Y, direction):
            vals = np.array(p0.as_float_tuple())
            pp = Point(ls.vars, list(vals + h * direction))
            pm = Point(ls.vars, list(vals - h * direction))
            return (Y.at(pp) - Y.at(pm)) / (2 * h)

        approx = directional(g[1], g1v) - directional(g[0], g2v)
        assert np.max(np.abs(br.at(p0) - approx)) < 1e-6

    def test_jacobi_random(self):
        rng = random.Random(37)
        vs = VariableSpace.canonical(2, 1)
        for _ in range(25):
            A = random_vector_field(rng, vs)
            B = random_vector_field(rng, vs)
            C = random_vector_field(rng, vs)
            s = (lie_bracket(lie_bracket(A, B), C)
                 + lie_bracket(lie_bracket(B, C), A)
                 + lie_bracket(lie_bracket(C, A), B))
            assert s.is_structural_zero()
