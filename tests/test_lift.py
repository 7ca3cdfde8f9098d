"""Lifting, annihilators, bracket modules, and the duality cross-checks."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import tflkit.numlin as numlin
from tflkit.errors import (DomainError, InvarianceViolation, NotOnN,
                           PointNotOnL, RankDeficientN)
from tflkit.expr import Expr, Point, VariableSpace, Zeroness, parse_expr
from tflkit.forms import coordinate_form, d_of_function
from tflkit.lift import ControlSystem, ann_tangent_L, lift_system
from tflkit.pfaffian import augment_with_dt
from tflkit.conditions import sample_on_N
from conftest import make_double_integrator
from _brackets import (VectorField, contract, coordinate_field, f_field,
                       g_fields, g_module, involutive_closure, s_module,
                       u_module, y_field)
from _pointwise import ideal_at
from _exprs import point_from_map


class TestControlSystemValidation:
    def test_x0_off_manifold(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        with pytest.raises(ValueError):
            ControlSystem(vs, [E("x2"), E("0")], [[E("0"), E("1")]],
                          [E("x2")], [0, 1], [E("0")])

    def test_rank_deficient_defs(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        with pytest.raises(RankDeficientN):
            ControlSystem(vs, [E("x2"), E("0")], [[E("0"), E("1")]],
                          [E("x1 - x1 + x2"), E("2*x2")], [1, 0], [E("0")])

    def test_invariance_violation(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        # x2' = x1 does not vanish on {x2 = 0} away from x1 = 0
        with pytest.raises(InvarianceViolation):
            ControlSystem(vs, [E("x2"), E("x1")], [[E("0"), E("1")]],
                          [E("x2")], [1, 0], [E("0")])

    def test_feedback_restores_invariance(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        # u* = -x1 cancels the drift on N
        sys = ControlSystem(vs, [E("x2"), E("x1")], [[E("0"), E("1")]],
                            [E("x2")], [1, 0], [E("-x1")])
        assert sys.n_star == 1

    def test_u_star_enters_p0(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        sys = ControlSystem(vs, [E("x2"), E("x1")], [[E("0"), E("1")]],
                            [E("x2")], [1, 0], [E("-x1")])
        assert sys.x0_point().of("u1") == -1

    @pytest.mark.parametrize("x1", [0.5, 0.1])
    def test_float_x0_is_stored_exactly(self, x1):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        sys = ControlSystem(vs, [E("x2"), E("0")], [[E("0"), E("1")]],
                            [E("x2")], [x1, 0], [E("0")])
        values = sys.x0_point().values
        assert all(isinstance(v, Fraction) for v in values)
        # the float's own value, not a rounded rational such as 1/10
        assert sys.x0_point().of("x1") == Fraction(x1)


class TestParametrization:
    """N = {x1^2 - x2^3 = 0}: no state appears linearly in its defining
    function, so the reduction leaves it over and vanishing on N is decided
    through the parametrization x = (s^3, s^2, x3)."""

    VS3 = VariableSpace.canonical(3, 1)

    def _system(self, param):
        E = lambda s: parse_expr(s, self.VS3)
        return ControlSystem(self.VS3, [E("0")] * 3,
                             [[E("0"), E("0"), E("1")]], [E("x1^2 - x2^3")],
                             [1, 1, 1], [E("0")],
                             parametrization=[E(s) for s in param])

    def test_reduction_leaves_the_defining_function(self):
        sys = self._system(["x1^3", "x1^2", "x3"])
        bindings, leftovers = sys.reduction()
        assert bindings == {}
        assert leftovers == [parse_expr("x1^2 - x2^3", self.VS3)]

    @pytest.mark.parametrize("e, verdict", [
        ("x1^2 - x2^3", Zeroness.ZERO),
        ("(x1^2 - x2^3)*x3", Zeroness.ZERO),
        ("x1 - 1", Zeroness.NONZERO),
        ("x1*x2 - x3^5", Zeroness.NONZERO),
    ])
    def test_vanishes_on_N(self, e, verdict):
        sys = self._system(["x1^3", "x1^2", "x3"])
        assert sys.vanishes_on_N(parse_expr(e, self.VS3)) == verdict

    def test_parametrization_off_N_rejected(self):
        with pytest.raises(NotOnN, match="parametrization does not satisfy "
                                         "the defining functions"):
            self._system(["x1^2", "x1^2", "x3"])


class TestPointTarget:
    """N = {3*x1 = 1, x2 = x1^2, x3 = 2} is the point q = (1/3, 1/9, 2).
    x0 is the float nearest to q, within the tolerance _validate allows;
    vanishing on N is decided at q itself."""

    VS3 = VariableSpace.canonical(3, 1)

    def _system(self):
        E = lambda s: parse_expr(s, self.VS3)
        return ControlSystem(self.VS3, [E("0")] * 3,
                             [[E("0"), E("0"), E("1")]],
                             [E("3*x1 - 1"), E("x2 - x1^2"), E("x3 - 2")],
                             [0.3333333333333333, 0.1111111111111111, 2],
                             [E("0")])

    def _spy_substitute(self, monkeypatch):
        seen = []
        substitute = Expr.substitute

        def spy(e, bindings):
            seen.append(e)
            return substitute(e, bindings)

        monkeypatch.setattr(Expr, "substitute", spy)
        return seen

    def test_decided_at_the_binding_point_not_at_x0(self, monkeypatch):
        sys = self._system()
        e = parse_expr("3*x1 - 1", self.VS3)
        assert e.eval(sys.x0_point()) != 0
        seen = self._spy_substitute(monkeypatch)
        assert sys.vanishes_on_N(e) == Zeroness.ZERO
        assert sys.vanishes_on_N(e + 1) == Zeroness.NONZERO
        assert seen == []

    def test_same_verdict_as_substitution(self):
        sys = self._system()
        bindings, leftovers = sys.reduction()
        assert leftovers == []
        rng = random.Random(19)
        E = lambda s: parse_expr(s, self.VS3)
        states = [Expr.var_index(self.VS3, i)
                  for i in self.VS3.state_indices()]
        defs = [E("3*x1 - 1"), E("x2 - x1^2"), E("x3 - 2")]

        def poly():
            out = Expr.rational(self.VS3, Fraction(rng.randint(-4, 4),
                                                   rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)):
                term = Expr.rational(self.VS3, rng.randint(-3, 3))
                for _ in range(rng.randint(0, 3)):
                    term = term * rng.choice(states)
                out = out + term
            return out

        verdicts = set()
        for _ in range(80):
            e = poly()
            if rng.random() < 0.5:
                e = e * rng.choice(defs) + poly() * rng.choice(defs)
            if rng.random() < 0.3:
                den = poly()
                if den.substitute(bindings).is_structural_zero():
                    continue
                e = e / den
            want = e.substitute(bindings).zeroness()
            assert sys.vanishes_on_N(e) == want
            verdicts.add(want)
        assert verdicts == {Zeroness.ZERO, Zeroness.NONZERO}

    @pytest.mark.parametrize("text, verdict", [
        ("exp(3*x1 - 1) - 1", Zeroness.ZERO),
        ("sin(x3) + x2", Zeroness.NONZERO),
        ("t*(3*x1 - 1)", Zeroness.ZERO),
        ("t + x3 - 2", Zeroness.NONZERO),
        ("u1*(x2 - x1^2)", Zeroness.ZERO),
    ])
    def test_kernels_t_and_u_are_substituted(self, monkeypatch, text,
                                             verdict):
        sys = self._system()
        e = parse_expr(text, self.VS3)
        seen = self._spy_substitute(monkeypatch)
        assert sys.vanishes_on_N(e) == verdict
        assert seen[0] is e

    def test_vanishing_denominator(self, monkeypatch):
        # the error of the substitution, as before evaluation decided
        sys = self._system()
        seen = self._spy_substitute(monkeypatch)
        for text in ("1/(3*x1 - 1)", "(x2 - 1/9)/(x3 - 2)"):
            e = parse_expr(text, self.VS3)
            with pytest.raises(DomainError,
                               match="division by zero expression"):
                sys.vanishes_on_N(e)
            assert seen[-1] is e


class TestCertifyVanishing:
    def test_exact_zero_without_warning(self, chain3):
        E = lambda s: parse_expr(s, chain3.vars)
        warnings = []
        assert chain3.certify_vanishing(E("x1 + x2*x3"), None, warnings,
                                        lambda: "sampled")
        assert warnings == []

    def test_nonzero_without_warning(self, chain3):
        E = lambda s: parse_expr(s, chain3.vars)
        warnings = []
        assert not chain3.certify_vanishing(E("x1 + 1"), None, warnings,
                                            lambda: "sampled")
        assert warnings == []

    def test_sampled_verdict_warns(self):
        # the unit circle has no linearly solvable defining function, so
        # the verdict on N rests on samples
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        sys = ControlSystem(vs, [E("-x2"), E("x1")], [[E("x1"), E("x2")]],
                            [E("x1^2 + x2^2 - 1")], [1, 0], [E("0")])
        samples = sample_on_N(sys, 3)
        warnings = []
        assert sys.certify_vanishing(E("2*x1^2 + 2*x2^2 - 2"), samples,
                                     warnings, lambda: "sampled")
        assert warnings == ["sampled"]


class TestLiftSystem:
    def test_worked_p0(self, sec5_lifted):
        assert sec5_lifted.p0.values == tuple(
            [0, 0, 0, 2, 0, 4, 0, 0, 0, 0])

    def test_worked_generator_count(self, sec5_lifted):
        assert len(sec5_lifted.I0) == 7

    def test_double_integrator_forms(self):
        sys = make_double_integrator()
        ls = lift_system(sys)
        vs = sys.vars
        E = lambda s: parse_expr(s, vs)
        dt = coordinate_form(vs, "t")
        om1 = coordinate_form(vs, "x1") - dt.scale(E("x2"))
        om2 = coordinate_form(vs, "x2") - dt.scale(E("u1"))
        assert (ls.omega[0] - om1).is_structural_zero()
        assert (ls.omega[1] - om2).is_structural_zero()

    def test_ideal_annihilates_trajectory_field(self, sec5_lifted):
        Y = y_field(sec5_lifted)
        for w in sec5_lifted.omega:
            assert contract(Y, w).coefficient(()).is_structural_zero()

    def test_lifted_fields_state_only(self, sec5_lifted):
        for X in [f_field(sec5_lifted)] + g_fields(sec5_lifted):
            assert X.components[0].is_structural_zero()
            for j in range(sec5_lifted.vars.m):
                assert X.components[1 + j].is_structural_zero()


class TestAnnTangentL:
    def test_worked_rows(self, sec5_lifted):
        rows = ann_tangent_L(sec5_lifted, sec5_lifted.p0)
        assert rows.shape == (6, 10)
        assert numlin.rank(rows) == 6
        # dt and d(x1^2+x2^2-x3) = 4dx1 - dx3 at x0, then dx4..dx7
        assert rows[0, 0] == 1.0
        assert rows[1, 3] == 4.0 and rows[1, 5] == -1.0

    def test_double_integrator_rows(self):
        ls = lift_system(make_double_integrator())
        rows = ann_tangent_L(ls, ls.p0)
        expect = np.zeros((2, 4))
        expect[0, 0] = 1.0   # dt
        expect[1, 3] = 1.0   # dx2
        assert np.allclose(rows, expect)

    def test_differentials_built_once(self, sec5_lifted, monkeypatch):
        # the rows are d(phi) at each point, and no point takes a derivative
        ls = sec5_lifted
        points = [ls.p0, ls.p0.replace(x1=1, x2=2, x3=5, u1=3)]
        want = [np.array([d_of_function(phi).at(p) for phi in ls.L_defs])
                for p in points]
        taken = []
        diff = Expr.diff
        monkeypatch.setattr(
            Expr, "diff", lambda self, v: taken.append(v) or diff(self, v))
        for p, w in zip(points, want):
            assert np.array_equal(ann_tangent_L(ls, p), w)
        assert taken == []

    def test_point_off_l(self, sec5_lifted):
        p = sec5_lifted.p0.replace(x4=1)
        with pytest.raises(PointNotOnL):
            ann_tangent_L(sec5_lifted, p)


class TestBracketModules:
    def test_g0_is_inputs(self, sec5_lifted):
        G0 = g_module(sec5_lifted, 0)
        assert G0 == g_fields(sec5_lifted)

    def test_double_integrator_g1(self):
        ls = lift_system(make_double_integrator())
        G1 = g_module(ls, 1)
        pts = np.array([X.at(ls.p0) for X in G1])
        # g = (0,1) and [f,g] = (-1,0) in state coordinates
        assert numlin.rank(pts) == 2

    def test_kalman_oracle(self):
        """G^(n-1) spans the reachable directions of a controllable LTI."""
        rng = random.Random(9)
        for _ in range(10):
            n, m = rng.choice([(3, 1), (3, 2), (4, 2)])
            A = np.array([[rng.randint(-2, 2) for _ in range(n)]
                          for _ in range(n)])
            B = np.array([[rng.randint(-2, 2) for _ in range(m)]
                          for _ in range(n)])
            kal = np.hstack([np.linalg.matrix_power(A, j) @ B
                             for j in range(n)])
            vs = VariableSpace.canonical(n, m)
            f = [sum((Expr.rational(vs, int(A[i, j]))
                      * Expr.var_index(vs, 1 + m + j) for j in range(n)),
                     Expr.zero(vs)) for i in range(n)]
            g = [[Expr.rational(vs, int(B[i, j])) for i in range(n)]
                 for j in range(m)]
            # N is irrelevant for the module itself; use a hyperplane
            defs = [Expr.var_index(vs, 1 + m)]
            try:
                sysm = ControlSystem(vs, f, g, defs, [0] * n,
                                     [Expr.zero(vs)] * m)
            except InvarianceViolation:
                continue
            ls = lift_system(sysm)
            Gn = g_module(ls, n - 1)
            rows = np.array([X.at(ls.p0) for X in Gn])
            assert numlin.rank(rows) == numlin.rank(kal)

    def test_s0_equals_g0(self, sec5_lifted):
        assert s_module(sec5_lifted, 0) == g_fields(sec5_lifted)

    def test_involutive_g_means_s_stalls(self):
        # commuting constant fields: S^1 spans G^0 when G^1 adds nothing
        vs = VariableSpace.canonical(3, 2)
        E = lambda s: parse_expr(s, vs)
        sys = ControlSystem(vs, [E("0"), E("0"), E("0")],
                            [[E("1"), E("0"), E("0")],
                             [E("0"), E("1"), E("0")]],
                            [E("x3")], [0, 0, 0], [E("0"), E("0")])
        ls = lift_system(sys)
        S1 = s_module(ls, 1)
        rows = np.array([X.at(ls.p0) for X in S1])
        assert numlin.rank(rows) == 2

    def test_worked_s1_corank(self, sec5_lifted, sec5_flag):
        """rank S^1 + rank<I^(2), dt> = dim M - 1 at p0 (duality with the
        trajectory direction removed)."""
        ls = sec5_lifted
        S1 = s_module(ls, 1)
        rows = np.array([X.at(ls.p0) for X in S1 + u_module(ls)])
        aug = augment_with_dt(sec5_flag.entry(2))
        assert numlin.rank(rows) + numlin.rank(ideal_at(aug, ls.p0)) \
            == ls.vars.total


class TestInvolutiveClosure:
    def test_coordinate_fields(self, sec5_lifted):
        vs = sec5_lifted.vars
        fields = [coordinate_field(vs, "x1"), coordinate_field(vs, "x2")]
        out = involutive_closure(fields, sec5_lifted.p0)
        assert len(out) == 2

    def test_bracket_generates(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        X = VectorField.from_state_components(vs, [E("1"), E("0")])
        Y = VectorField.from_state_components(vs, [E("0"), E("x1")])
        p = point_from_map(vs, dict(t=0, u1=0, x1=1, x2=0))
        out = involutive_closure([X, Y], p)
        assert len(out) == 2
        rows = np.array([Z.at(p) for Z in out])
        assert numlin.rank(rows) == 2

    def test_closure_ranks_agree_for_g_and_s(self, sec5_lifted):
        """inv(G^k) and inv(S^k) have equal rank (closure identity)."""
        ls = sec5_lifted
        for k in (0, 1):
            invg = involutive_closure(g_module(ls, k), ls.p0)
            invs = involutive_closure(s_module(ls, k), ls.p0)
            rg = np.array([X.at(ls.p0) for X in invg])
            rs = np.array([X.at(ls.p0) for X in invs])
            assert numlin.rank(rg) == numlin.rank(rs)


class TestDualityInvariants:
    def test_system_ideal_annihilates_d0(self, sec5_lifted):
        """I^(0) = Ann(D^(0)) pointwise at random points."""
        ls = sec5_lifted
        rng = random.Random(21)
        for _ in range(8):
            p = Point(ls.vars, [v + rng.uniform(-0.3, 0.3)
                                for v in ls.p0.as_float_tuple()])
            rows = ideal_at(ls.I0, p)
            fields = np.array([X.at(p) for X in [y_field(ls)] + u_module(ls)])
            assert np.max(np.abs(rows @ fields.T)) < 1e-9
            assert numlin.rank(rows) + numlin.rank(fields) == ls.vars.total

    def test_augmented_ideal_duality_on_worked_system(self, sec5_lifted, sec5_flag):
        """span{<I^(k), dt>}_p = Ann(U + S^(k-1))_p for k = 1..3."""
        ls = sec5_lifted
        rng = random.Random(23)
        pts = [ls.p0] + [
            Point(ls.vars, [v + rng.uniform(-0.2, 0.2)
                            for v in ls.p0.as_float_tuple()])
            for _ in range(4)]
        for k in (1, 2, 3):
            fields = u_module(ls) + s_module(ls, k - 1)
            aug = augment_with_dt(sec5_flag.entry(k))
            for p in pts:
                span = ideal_at(aug, p)
                frows = np.array([X.at(p) for X in fields])
                assert np.max(np.abs(span @ frows.T)) < 1e-8
                assert numlin.rank(span) + numlin.rank(frows) == ls.vars.total

    def test_closure_annihilates_involutive_closure(self, sec5_lifted,
                                                    sec5_closures):
        """<I^(k), dt>^inf generators contract to zero on U + inv(G^(k-1))."""
        ls = sec5_lifted
        rng = random.Random(27)
        pts = [ls.p0] + [
            Point(ls.vars, [v + rng.uniform(-0.1, 0.1)
                            for v in ls.p0.as_float_tuple()])
            for _ in range(3)]
        for k in (1, 2):
            fields = u_module(ls) + involutive_closure(
                g_module(ls, k - 1), ls.p0)
            for p in pts:
                span = ideal_at(sec5_closures[k], p)
                frows = np.array([X.at(p) for X in fields])
                assert np.max(np.abs(span @ frows.T)) < 1e-8


class TestGradientsAtX0:
    """`grad_at_x0` evaluates each distinct expression's gradient once per
    system and hands out a fresh array on every call."""

    def test_chain8_solve_evaluates_each_expression_once(self, monkeypatch):
        from tflkit.problem import cmd_solve, loads_problem
        from check_chain_digests import chain_text
        from test_kept_rows import CHAIN8

        calls, evaluated, inside = [], [], [None]
        grad_at_x0, expr_eval = ControlSystem.grad_at_x0, Expr.eval

        def grad_spy(self, h):
            calls.append(h)
            inside[0] = h
            try:
                return grad_at_x0(self, h)
            finally:
                inside[0] = None

        def eval_spy(self, point):
            if inside[0] is not None and (
                    not evaluated or evaluated[-1] is not inside[0]):
                evaluated.append(inside[0])
            return expr_eval(self, point)

        monkeypatch.setattr(ControlSystem, "grad_at_x0", grad_spy)
        monkeypatch.setattr(Expr, "eval", eval_spy)
        _, _, code = cmd_solve(loads_problem(chain_text(
            CHAIN8["chain8 seed 11"])))
        assert code == 0
        assert (len(calls), len(set(calls))) == (26, 15)
        assert len(evaluated) == 15 and set(evaluated) == set(calls)

    def test_returned_rows_are_fresh(self):
        sys_ = make_double_integrator()
        h = parse_expr("x1^2 + 3*x2", sys_.vars)
        first = sys_.grad_at_x0(h)
        want = first.copy()
        first[:] = 99.0
        second = sys_.grad_at_x0(h)
        assert np.array_equal(second, want) and second is not first
        second[0] = -1.0
        assert np.array_equal(sys_.grad_at_x0(h), want)

    def test_overflow_is_not_kept(self):
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        sys_ = ControlSystem(vs, [E("x2"), E("0")], [[E("0"), E("1")]],
                             [E("x2")], [Fraction(10) ** 200, 0], [E("0")])
        h = E("x2*(x1^2 + 1)")
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                sys_.grad_at_x0(h)
            assert str(info.value) == ("the gradient of 'x1^2*x2 + x2' at "
                                       "x0 is beyond float range")
        assert h not in sys_._grads_at_x0
