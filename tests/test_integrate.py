"""First integrals and the adaptation machinery."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tflkit.integrate as integrate
import tflkit.numlin as numlin
from tflkit.errors import AdaptationFailed, HintRejected, IntegrationFailed
from tflkit.expr import Expr, VariableSpace, Zeroness, parse_expr
from tflkit.forms import coordinate_form, d_of_function, exterior_derivative
from tflkit.lift import ControlSystem, lift_system
from tflkit.pfaffian import (Membership, PfaffianIdeal, ideal_membership)
from tflkit.integrate import (adapt_subordinate, adapt_to_L, antiderivative,
                              frobenius_integrate, poincare_potential)
from conftest import make_chain3
from _exprs import point_from_map
from _pointwise import rank_at, restricted_rank_on_L
from _ansatz_reference import ansatz_rows, potential_first_components

VS = VariableSpace.canonical(7, 2)
E = lambda s: parse_expr(s, VS)
DX = lambda nm: coordinate_form(VS, nm)


class TestAntiderivative:
    def test_polynomial(self):
        assert antiderivative(E("3*x1^2 + x2"), "x1") == E("x1^3 + x1*x2")

    def test_exponential_linear_argument(self):
        got = antiderivative(E("exp(-2*x4)"), "x4")
        assert (d_of_function(got).coefficient((VS.index("x4"),))
                - E("exp(-2*x4)")).is_structural_zero()

    def test_exponential_by_parts(self):
        got = antiderivative(E("x4^2*exp(x4)"), "x4")
        check = got.diff("x4") - E("x4^2*exp(x4)")
        assert check.is_structural_zero()

    def test_trig_by_parts(self):
        got = antiderivative(E("x1*sin(2*x1)"), "x1")
        assert (got.diff("x1") - E("x1*sin(2*x1)")).is_structural_zero()

    def test_simple_pole(self):
        got = antiderivative(E("1/x1"), "x1")
        assert got == E("ln(x1)")

    def test_negative_powers(self):
        got = antiderivative(E("x2/x1^2"), "x1")
        assert (got.diff("x1") - E("x2/x1^2")).is_structural_zero()

    def test_out_of_class_returns_none(self):
        assert antiderivative(E("exp(x4^2)"), "x4") is None
        assert antiderivative(E("ln(x1)"), "x1") is None


class TestPoincare:
    def test_exact_form_roundtrip(self):
        F = E("1/2*x1^2 + x2*x7 - 2")
        got = poincare_potential(d_of_function(F))
        assert (d_of_function(got) - d_of_function(F)).is_structural_zero()

    def test_kernel_potential(self):
        w = DX("x3").scale(E("exp(-x4)")) - DX("x4").scale(E("x3*exp(-x4)"))
        got = poincare_potential(w)
        assert (d_of_function(got) - w).is_structural_zero()

    def test_non_closed_returns_none(self):
        w = DX("x2").scale(E("x1"))
        assert poincare_potential(w) is None


def _p0():
    return point_from_map(VS, dict(t=0, u1=0, u2=0, x1=2, x2=0, x3=4, x4=0,
                                   x5=0, x6=0, x7=0))


class TestFrobenius:
    def test_worked_k2_closure(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[2], sec5_lifted, k=2)
        comps = set(str(c) for c in F.components)
        assert comps == {"x5 + x7", "t"}
        assert F.vanish_count == 2

    def test_worked_k1_closure_span(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[1], sec5_lifted, k=1)
        assert len(F.components) == 6
        assert rank_at(F, sec5_lifted.p0) == 6
        # span equality with the printed components of the construction
        span = PfaffianIdeal([d_of_function(c) for c in F.components],
                             sec5_lifted.p0, "span")
        for s in ["x5 + x7", "x5 + x6", "1/2*x1^2 + x2*x7 - 2", "x2",
                  "x3*exp(-x4) - 4", "t"]:
            assert ideal_membership(d_of_function(E(s)), span) \
                == Membership.MEMBER

    def test_coordinate_ideal(self, sec5_lifted):
        ideal = PfaffianIdeal([DX("x1"), DX("x2"), DX("t")], sec5_lifted.p0)
        F = frobenius_integrate(ideal, sec5_lifted)
        # components are anchored to vanish at p0, hence x1 - 2
        diffs = {repr(d_of_function(c)) for c in F.components}
        assert diffs == {"(1) dx1", "(1) dx2", "(1) dt"}

    def test_components_anchored_at_p0(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[1], sec5_lifted, k=1)
        for c in F.components:
            assert abs(float(c.eval(sec5_lifted.p0))) < 1e-12

    def test_integration_failed_reports_residual(self, sec5_lifted):
        # needs the error function: not in the expression class
        gen = DX("x1") - DX("x2").scale(E("x3*exp(x2^2)"))
        ideal = PfaffianIdeal([gen, DX("x3")], sec5_lifted.p0)
        with pytest.raises(IntegrationFailed) as err:
            frobenius_integrate(ideal, sec5_lifted, k=0)
        assert err.value.residual

    def test_hint_completes_the_span(self, sec5_lifted):
        # same ideal, but gen + x3 exp(x2^2) dx2 = dx1 is hinted as x1...
        # the honest hint is the full first integral, which does not exist
        # in the class; instead hint a spanning replacement pair
        gen = DX("x1") - DX("x2").scale(E("exp(x2)"))
        ideal = PfaffianIdeal([gen], sec5_lifted.p0)
        F = frobenius_integrate(ideal, sec5_lifted,
                                hints=[E("x1 + exp(x2) - x2*exp(x2)")])
        assert len(F.components) == 1

    def test_hint_rejected(self, sec5_lifted):
        # the built-in layers leave a residual here, so the bad hint is
        # actually consulted and must be rejected
        gen = DX("x1") - DX("x2").scale(E("x3*exp(x2^2)"))
        ideal = PfaffianIdeal([gen, DX("x3")], sec5_lifted.p0)
        with pytest.raises(HintRejected):
            frobenius_integrate(ideal, sec5_lifted, hints=[E("x2")])

    def test_redundant_hint_warns(self, sec5_lifted):
        ideal = PfaffianIdeal([DX("x1"), DX("t")], sec5_lifted.p0)
        warnings = []
        F = frobenius_integrate(ideal, sec5_lifted, hints=[E("x1")],
                                warnings=warnings)
        assert len(F.components) == 2
        assert any("unused" in w or "redundant" in w for w in warnings)

    def test_integrating_factor_layer(self, sec5_lifted):
        # x2 dx1 - x1 dx2 integrates to x1/x2 via an exponential factor
        gen = DX("x1").scale(E("x2")) - DX("x2").scale(E("x1"))
        p = _p0().replace(x2=1)
        ideal = PfaffianIdeal([gen], p)
        F = frobenius_integrate(ideal, None)
        assert len(F.components) == 1
        dF = d_of_function(F.components[0])
        span = PfaffianIdeal([dF], p, "span")
        assert ideal_membership(gen, span) == Membership.MEMBER


def _row_multiset(rows):
    """The nonzero rows of a dense or sparse matrix, as a sorted list of
    sorted (column, value) tuples."""
    out = []
    for r in rows:
        items = r.items() if isinstance(r, dict) else enumerate(r)
        row = tuple(sorted((c, Fraction(x)) for c, x in items if x))
        if row:
            out.append(row)
    return sorted(out)


class TestAnsatzRows:
    """The closed-combination ansatz reads its rows off packed terms; they
    are the rows built from one KForm two-form per (generator, mu) column
    (`tests/_ansatz_reference.py`), up to order, with the same
    nullspace."""

    @staticmethod
    def _compare(monkeypatch, ideal, plain):
        seen = []
        nullspace = numlin.rational_nullspace

        def spy(rows, ncols):
            seen.append((rows, ncols, nullspace(rows, ncols)))
            return seen[-1][2]

        monkeypatch.setattr(numlin, "rational_nullspace", spy)
        integrate._closed_combinations_q(ideal, 1, plain)
        (rows, ncols, null), = seen
        want_rows, want_ncols = ansatz_rows(ideal, 1, plain)
        assert ncols == want_ncols
        assert _row_multiset(rows) == _row_multiset(want_rows)
        assert null == nullspace(want_rows, want_ncols)
        return null

    def test_sec5_closure_both_passes(self, monkeypatch, sec5_closures):
        ideal = sec5_closures[1]
        plain = self._compare(monkeypatch, ideal, True)
        shared = self._compare(monkeypatch, ideal, False)
        assert plain and shared

    def test_kernel_bearing_ideal(self, monkeypatch):
        # the pivot x2 of the first generator is the shared denominator,
        # and 1/x2 times it is d(x1 + ln(x2))
        gens = [DX("x1").scale(E("x2")) + DX("x2"),
                DX("x3") + DX("x4").scale(E("exp(x4)")),
                DX("x5") + DX("x6").scale(E("x7*sin(x6)"))]
        ideal = PfaffianIdeal(gens, _p0().replace(x2=1))
        assert sum(g.coefficient((i,)).has_kernels()
                   for g in ideal.generators for i in range(VS.total)) >= 2
        for plain in (True, False):
            assert self._compare(monkeypatch, ideal, plain)


class TestIndependenceBeforePotential:
    def test_sec5_solve_integrates_only_independent_forms(self,
                                                          monkeypatch):
        """A sec5 solve seeks 9 potentials, not 27, and the closed
        generators and closed combinations of every integrated ideal give
        the components that integrating each form before testing its row
        gives."""
        import tflkit.algorithm as algorithm
        from tflkit.problem import cmd_solve, load_problem
        calls, ideals = [], []
        potential, integrate_ = (integrate.poincare_potential,
                                 algorithm.frobenius_integrate)

        def potential_spy(omega):
            calls.append(omega)
            return potential(omega)

        def integrate_spy(ideal, *args, **kwargs):
            ideals.append(ideal)
            return integrate_(ideal, *args, **kwargs)

        monkeypatch.setattr(integrate, "poincare_potential", potential_spy)
        monkeypatch.setattr(algorithm, "frobenius_integrate", integrate_spy)
        _, _, code = cmd_solve(load_problem(
            Path(__file__).resolve().parent.parent / "problems"
            / "paper-sec5.tfl"))
        assert code == 0 and len(calls) == 9
        monkeypatch.undo()
        for ideal in ideals:
            got = frobenius_integrate(ideal).components
            # the integrating-factor layer, which follows, finds the rest
            want = potential_first_components(ideal)
            assert got[:len(want)] == want and len(got) == len(ideal)

    def test_form_without_potential_gives_its_row_back(self, monkeypatch):
        """dx1 first has no potential here; its row is dropped again, so
        the same direction, met again as a closed combination, is kept."""
        potential, seen = integrate.poincare_potential, []

        def first_fails(omega):
            seen.append(omega)
            return None if len(seen) == 1 else potential(omega)

        monkeypatch.setattr(integrate, "poincare_potential", first_fails)
        ideal = PfaffianIdeal([DX("x1"), DX("x2")], _p0())
        F = frobenius_integrate(ideal)
        assert repr(seen[0]) == "(1) dx1" and len(seen) == 3
        assert {str(c) for c in F.components} == {"x1 - 2", "x2"}


class TestAdaptToL:
    def test_worked_combination(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[1], sec5_lifted, k=1)
        out = adapt_to_L(F, sec5_lifted, target_vanish=4, degree=2)
        assert out.vanish_count == 4
        sys = sec5_lifted.base
        for c in out.vanishing():
            assert sys.vanishes_on_N(c.substitute({0: 0})) == Zeroness.ZERO
        assert rank_at(out, sec5_lifted.p0) == 6
        # the time component sits in the vanishing block
        assert any(c == E("t") for c in out.vanishing())

    def test_identity_when_already_adapted(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[2], sec5_lifted, k=2)
        out = adapt_to_L(F, sec5_lifted, target_vanish=2)
        assert [str(c) for c in out.components] \
            == [str(c) for c in F.components]

    def test_overfull_block_rejected(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[2], sec5_lifted, k=2)
        with pytest.raises(AdaptationFailed):
            adapt_to_L(F, sec5_lifted, target_vanish=1)

    def test_lemma_rank_formula(self, sec5_lifted, sec5_closures):
        """rank(F_k restricted to L) = l_k - (1 + sum rho_i for i >= k)."""
        expectations = {2: (2, 2), 1: (6, 4)}
        for k, (ell, vanish) in expectations.items():
            F = frobenius_integrate(sec5_closures[k], sec5_lifted, k=k)
            F = adapt_to_L(F, sec5_lifted, target_vanish=vanish)
            assert len(F.components) == ell
            assert restricted_rank_on_L(F, sec5_lifted) == ell - vanish


class TestAdaptSubordinate:
    def test_worked_towers_appear_verbatim(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[1], sec5_lifted, k=1)
        out = adapt_subordinate(F, [E("x5 + x7")], [3], sec5_lifted, 1)
        comps = [str(c) for c in out.components]
        assert "x5 + x7" in comps and "x5 + x6" in comps
        assert out.vanish_count == 3
        assert rank_at(out, sec5_lifted.p0) == 6

    def test_empty_output_is_identity(self, sec5_lifted, sec5_closures):
        F = frobenius_integrate(sec5_closures[2], sec5_lifted, k=2)
        assert adapt_subordinate(F, [], [], sec5_lifted, 2) is F

    def test_chain_towers(self, chain3):
        ls = lift_system(chain3)
        vs = chain3.vars
        Ep = lambda s: parse_expr(s, vs)
        from tflkit.pfaffian import derived_flag, augment_with_dt, \
            differential_closure
        flag = derived_flag(ls.I0)
        closure0 = differential_closure(augment_with_dt(flag.entry(0)))
        F0 = frobenius_integrate(closure0, ls, k=0)
        out = adapt_subordinate(F0, [Ep("x1")], [3], ls, 1)
        comps = [str(c) for c in out.components]
        assert "x1" in comps and "x2" in comps
