"""Relative degrees, zero dynamics, the full driver, and the normal form."""

import numpy as np
import pytest

import tflkit.numlin as numlin
from tflkit.errors import IndependenceViolation
from tflkit.expr import Expr, VariableSpace, Zeroness, parse_expr
from tflkit.forms import d_of_function
from tflkit.lift import ControlSystem, lift_system
from tflkit.algorithm import (NoRelativeDegree, RelativeDegree, _z_equals_n,
                              dual_rd_check, normal_form, run_tfl,
                              vector_relative_degree, zero_dynamics_manifold)
from conftest import (make_chain3, make_chain8, make_double_integrator,
                      make_sec5_system)

VS = VariableSpace.canonical(7, 2)
E = lambda s: parse_expr(s, VS)

# output known to work for the seven-state showcase system
KNOWN_OUTPUT = ["x5 + x7", "x1^2 + x2^2 + 2*x2*x7 - x3*exp(-x4)"]


class TestVectorRelativeDegree:
    def test_worked_output(self, sec5):
        rd = vector_relative_degree(sec5, [E(s) for s in KNOWN_OUTPUT])
        assert isinstance(rd, RelativeDegree)
        assert rd.kappa == [3, 2]
        assert numlin.rank(rd.decoupling) == 2

    def test_double_integrator(self, double_integrator):
        vs = double_integrator.vars
        rd = vector_relative_degree(double_integrator,
                                    [parse_expr("x1", vs)])
        assert rd.kappa == [2]

    def test_first_order_component(self, sec5):
        rd = vector_relative_degree(sec5, [E("x4")])
        assert rd.kappa == [1]
        assert rd.decoupling[0, 0] == 1.0

    def test_rank_deficient_at_x0(self, sec5):
        # L_g h = (0, -2 x1 x2) is a nonzero function that vanishes at x0,
        # so no well-defined relative degree there
        rd = vector_relative_degree(sec5, [E("x1^2 + x2^2 - x3*exp(-x4)")])
        assert isinstance(rd, NoRelativeDegree)

    def test_dependent_differentials_rejected(self, sec5):
        with pytest.raises(IndependenceViolation):
            vector_relative_degree(sec5, [E("x5 + x7"), E("2*x5 + 2*x7")])


class TestDualCheck:
    def test_worked_uniform_component(self, sec5_lifted, sec5_flag):
        assert dual_rd_check(sec5_lifted, sec5_flag,
                             [E("x5 + x7")], 3) is True

    def test_too_high_degree_fails(self, sec5_lifted, sec5_flag):
        assert dual_rd_check(sec5_lifted, sec5_flag,
                             [E("x5 + x7")], 4) is False

    def test_agrees_with_direct_on_double_integrator(self, double_integrator):
        from tflkit.pfaffian import derived_flag
        ls = lift_system(double_integrator)
        flag = derived_flag(ls.I0)
        vs = double_integrator.vars
        h = [parse_expr("x1", vs)]
        rd = vector_relative_degree(double_integrator, h)
        assert rd.kappa == [2]
        assert dual_rd_check(ls, flag, h, 2) is True
        assert dual_rd_check(ls, flag, h, 1) is False


class TestZeroDynamics:
    def test_worked_first_tower(self, sec5):
        defs = zero_dynamics_manifold(sec5, [E("x5 + x7")], [3])
        assert [str(d) for d in defs] \
            == ["x5 + x7", "x5 + x6", "-x3*x5 + 2*x6 + x7"]

    def test_double_integrator(self, double_integrator):
        vs = double_integrator.vars
        defs = zero_dynamics_manifold(double_integrator,
                                      [parse_expr("x2", vs)], [1])
        assert [str(d) for d in defs] == ["x2"]

    def test_chain(self, chain3):
        vs = chain3.vars
        defs = zero_dynamics_manifold(chain3, [parse_expr("x1", vs)], [3])
        assert [str(d) for d in defs] == ["x1", "x2", "x3"]


class TestZEqualsN:
    """Z^(1) = N near x0 follows from N inside Z^(1), equal codimension and
    independent defining functions at x0; an output whose Z^(1) differs
    from N fails one of the three."""

    def _check(self, sys, h, kappa):
        vs = sys.vars
        defs = zero_dynamics_manifold(sys, [parse_expr(s, vs) for s in h],
                                      kappa)
        warnings = []
        samples = [sys.x0_point()]
        return _z_equals_n(sys, defs, samples, warnings), warnings

    def test_equal(self, chain3):
        assert self._check(chain3, ["x1"], [3]) == (True, [])

    def test_equal_near_x0_only(self, chain3):
        # Z^(1) = {x1 in {0, 1}, x2 = x3 = 0} has a second branch away
        # from x0, which the local certificate does not need to exclude
        assert self._check(chain3, ["x1^2 - x1"], [3]) == (True, [])

    def test_larger_z_rejected_by_count(self, chain3):
        # Z^(1) = {x1 = x2 = 0} contains N = {x1 = x2 = x3 = 0}
        assert self._check(chain3, ["x1"], [2]) == (False, [])

    def test_singular_z_rejected_by_independence(self, chain3):
        # x1^2, 2*x1*x2, ... vanish on N with the right count, but their
        # differentials vanish at x0
        with pytest.raises(IndependenceViolation):
            self._check(chain3, ["x1^2"], [3])

    def test_not_vanishing_on_n_rejected(self, chain3):
        vs = chain3.vars
        defs = [parse_expr(s, vs) for s in ("x1 - 1", "x2", "x3")]
        assert _z_equals_n(chain3, defs, [chain3.x0_point()], []) is False


class TestRunTfl:
    def test_worked_end_to_end(self, sec5, sec5_report):
        rep = sec5_report
        assert rep.success
        assert rep.conditions.indices.rho == [2, 2, 1, 0]
        assert rep.conditions.indices.kappa == [3, 2]
        assert rep.output.kappa == [3, 2]
        assert len(rep.output.components) == 2
        # independent re-verification of the emitted certificate
        rd = vector_relative_degree(sec5, rep.output.components)
        assert isinstance(rd, RelativeDegree) and rd.kappa == [3, 2]
        assert sum(rd.kappa) == 5
        for c in rep.output.components:
            assert sec5.vanishes_on_N(c) == Zeroness.ZERO
        # nesting of the zero-dynamics flag
        levels = rep.zero_dynamics.levels
        for k in (3, 2):
            higher = {str(d) for d in levels[k + 1]}
            assert higher <= {str(d) for d in levels[k]}
        assert len(levels[1]) == 5

    def test_chain_degenerates_to_state_linearization(self, chain3):
        rep = run_tfl(chain3)
        assert rep.success
        assert rep.output.kappa == [3]
        vs = chain3.vars
        assert rep.output.components[0] == parse_expr("x1", vs)
        assert rep.normal_form.eta == []

    def test_double_integrator(self, double_integrator):
        rep = run_tfl(double_integrator)
        assert rep.success
        vs = double_integrator.vars
        assert rep.output.kappa == [1]
        assert rep.output.components[0] == parse_expr("x2", vs)
        assert [str(c) for c in rep.normal_form.eta] == ["x1"]
        assert rep.normal_form.beta.tolist() == [[1.0]]
        assert rep.normal_form.alpha[0].is_structural_zero()

    def test_conditions_only_mode(self, sec5):
        rep = run_tfl(sec5, conditions_only=True)
        assert rep.conditions.all_hold
        assert rep.output is None and rep.normal_form is None

    def test_integration_only_at_distinct_indices(self, chain3, monkeypatch):
        """With rho = (1,1,1) the loop levels k=2,1 are skipped: exactly one
        closure is integrated, that of I^(2), the only closure with 2
        generators (the closures hold 4, 3, 2 and 1)."""
        import tflkit.algorithm as algorithm
        calls = []
        original = algorithm.frobenius_integrate

        def counting(ideal, *args, **kwargs):
            calls.append(len(ideal))
            return original(ideal, *args, **kwargs)

        monkeypatch.setattr(algorithm, "frobenius_integrate", counting)
        rep = run_tfl(chain3)
        assert rep.success
        assert rep.closure_counts == (4, 3, 2, 1)
        assert calls == [rep.closure_counts[2]]

    @staticmethod
    def _augment_and_closure_spy(monkeypatch):
        import tflkit.pfaffian as pfaffian
        inputs = {"augment_with_dt": [], "differential_closure": []}

        def counting(name, original):
            def wrapper(ideal, *args, **kwargs):
                inputs[name].append(ideal)
                return original(ideal, *args, **kwargs)
            return wrapper

        for name in inputs:
            monkeypatch.setattr(pfaffian, name,
                                counting(name, getattr(pfaffian, name)))
        return inputs

    def test_augmented_ideals_and_closures_built_once(self, chain3,
                                                      monkeypatch):
        """A solve builds <I^(k), dt> only where a closure's generators are
        read, and derives a closure only at a level whose <I^(k), dt> is
        not differential; neither twice for one entry, however many stages
        read them.  On the chain every level is closed, and only the
        harvest level's closure is read."""
        inputs = self._augment_and_closure_spy(monkeypatch)
        rep = run_tfl(chain3)
        assert rep.success
        assert {name: len(seen) for name, seen in inputs.items()} == {
            "augment_with_dt": 1, "differential_closure": 0}
        for name, seen in inputs.items():
            assert len({id(ideal) for ideal in seen}) == len(seen), name

    @pytest.mark.parametrize("make, augments, closures", [
        (make_chain8, 1, 0),
        # level 2 is the one that is not closed; levels 1 and 2 are read
        # by the harvests at k = 2 and k = 3
        (make_sec5_system, 2, 1),
    ])
    def test_closures_derived_only_where_not_closed(self, make, augments,
                                                    closures, monkeypatch):
        inputs = self._augment_and_closure_spy(monkeypatch)
        assert run_tfl(make()).success
        assert len(inputs["augment_with_dt"]) == augments
        assert len(inputs["differential_closure"]) == closures

    def test_state_gradients_and_lie_derivatives_built_once(self,
                                                          monkeypatch):
        """A solve takes each state partial of each distinct expression
        once and L_f of each distinct input once, however many harvest
        levels, certificates and charts read the towers."""
        import sys as _sys
        from collections import Counter, defaultdict
        tower_modules = {"tflkit.lift", "tflkit.conditions",
                         "tflkit.algorithm"}
        partials = Counter()
        lie_f_results = defaultdict(list)
        original_diff = Expr.diff
        original_lie_f = ControlSystem.lie_f

        def diff(self, i):
            caller = _sys._getframe(1).f_globals.get("__name__")
            if caller in tower_modules:
                partials[(self, i)] += 1
            return original_diff(self, i)

        def lie_f(self, h):
            out = original_lie_f(self, h)
            lie_f_results[h].append(out)
            return out

        monkeypatch.setattr(Expr, "diff", diff)
        monkeypatch.setattr(ControlSystem, "lie_f", lie_f)
        rep = run_tfl(make_chain3())  # fresh system: the memo is per instance
        assert rep.success
        assert partials and max(partials.values()) == 1
        calls = sum(len(outs) for outs in lie_f_results.values())
        assert calls > len(lie_f_results)  # the towers are read repeatedly
        for h, outs in lie_f_results.items():
            assert len({id(out) for out in outs}) == 1, h

    def test_failing_conditions_short_circuit(self):
        vs = VariableSpace.canonical(4, 2)
        Ep = lambda s: parse_expr(s, vs)
        sys = ControlSystem(
            vs, [Ep("0"), Ep("0"), Ep("0"), Ep("x3")],
            [[Ep("1"), Ep("0"), Ep("-x2"), Ep("0")],
             [Ep("0"), Ep("1"), Ep("x1"), Ep("0")]],
            [Ep("x2"), Ep("x3")], [1, 0, 0, 0], [Ep("0"), Ep("0")])
        rep = run_tfl(sys)
        assert not rep.conditions.inv
        assert rep.output is None
        assert not rep.success


class TestNormalForm:
    def test_worked_shapes(self, sec5_report):
        rep = sec5_report
        nf = rep.normal_form
        assert [len(t) for t in nf.xi] == [3, 2]
        assert len(nf.eta) == 2
        assert nf.beta.shape == (2, 2)
        assert numlin.rank(nf.beta) == 2
        assert nf.jacobian_condition < 1e3

    def test_chain_identity(self, chain3):
        nf = normal_form(chain3, [parse_expr("x1", chain3.vars)], [3])
        assert [str(c) for tower in nf.xi for c in tower] \
            == ["x1", "x2", "x3"]
        assert nf.eta == []
        assert nf.beta.tolist() == [[1.0]]

    def test_xi_vanishes_on_n(self, sec5, sec5_report):
        rep = sec5_report
        for tower in rep.normal_form.xi:
            for c in tower:
                assert sec5.vanishes_on_N(c) == Zeroness.ZERO
