"""Pfaffian ideals: membership, derived systems, flags, closures."""

import json
import random
from pathlib import Path

import numpy as np
import pytest

import tflkit.numlin as numlin
from tflkit.errors import RegularityViolation
from tflkit.expr import Point, VariableSpace, divide_by_gcd, parse_expr
from tflkit.forms import (coordinate_form, d_of_function, exterior_derivative,
                          wedge)
from tflkit.pfaffian import (Flag, Membership, PfaffianIdeal, augment_with_dt,
                             derived_flag, derived_system,
                             differential_closure, ideal_membership,
                             two_form_membership)
from conftest import decode, make_chain8
from _brackets import s_module, u_module
from _exprs import point_from_map
from _pointwise import pointwise_span

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
VS = VariableSpace.canonical(7, 2)
E = lambda s: parse_expr(s, VS)
DX = lambda nm: coordinate_form(VS, nm)


def simple_point(vs, **kw):
    vals = {nm: 0 for nm in vs.names}
    vals.update(kw)
    return point_from_map(vs, vals)


class TestMembership:
    def test_worked_generator_in_augmented_ideal(self, sec5_flag):
        # The dx5+dx7 direction lives in <I^(1), dt>; the bare I^(1)
        # generators carry dt terms, so the dt-augmented ideal is the right
        # home for the coordinate-only covector.
        aug = augment_with_dt(sec5_flag.entry(1))
        assert ideal_membership(DX("x5") + DX("x7"), aug) == Membership.MEMBER

    def test_dt_not_in_system_ideal(self, sec5_lifted):
        assert ideal_membership(DX("t"), sec5_lifted.I0) == Membership.NON_MEMBER

    def test_combination_by_construction(self, sec5_lifted):
        om = sec5_lifted.omega
        p0 = sec5_lifted.p0
        ideal = PfaffianIdeal(om[:2], p0)
        cand = om[0].scale(E("x1")) + om[1]
        assert ideal_membership(cand, ideal) == Membership.MEMBER

    def test_zero_form_is_member(self, sec5_lifted):
        from tflkit.forms import KForm
        assert ideal_membership(KForm.zero(VS, 1), sec5_lifted.I0) \
            == Membership.MEMBER


class TestDerivedSystem:
    def test_worked_first_step_matches_bracket_dual(self, sec5_lifted,
                                                    sec5_flag):
        """span{I^(1), dt}_p équals Ann(U + S^0)_p: the bracket-module dual
        gives an independent oracle for the derived system."""
        ls = sec5_lifted
        I1 = sec5_flag.entry(1)
        assert len(I1) == 5
        fields = u_module(ls) + s_module(ls, 0)
        rng = random.Random(2)
        for _ in range(6):
            p = Point(VS, [v + random.Random(rng.random()).uniform(-0.2, 0.2)
                           for v in ls.p0.as_float_tuple()])
            field_rows = np.array([X.at(p) for X in fields])
            span = np.vstack([I1.at(p),
                              coordinate_form(VS, 0).at(p)[None, :]])
            # every covector of <I1, dt> annihilates U + S^0
            assert np.max(np.abs(span @ field_rows.T)) < 1e-8
            assert numlin.rank(span) + numlin.rank(field_rows) == VS.total

    def test_exact_generator_fixed_point(self, sec5_lifted):
        ideal = PfaffianIdeal([DX("x1")], sec5_lifted.p0)
        out = derived_system(ideal)
        assert len(out) == 1
        assert ideal_membership(DX("x1"), out) == Membership.MEMBER

    def test_terminal_step_reaches_zero(self, sec5_flag):
        assert len(derived_system(sec5_flag.entry(2))) == 0

    def test_generators_nest(self, sec5_flag):
        for k in range(1, len(sec5_flag.entries)):
            for g in sec5_flag.entry(k).generators:
                assert ideal_membership(g, sec5_flag.entry(k - 1)) \
                    == Membership.MEMBER


class TestDerivedFlag:
    def test_worked_counts(self, sec5_flag):
        # The bracket modules (below) force rank 3 at the second step:
        # a widely quoted two-generator count for this system drops one
        # direction.
        assert sec5_flag.generator_counts() == (7, 5, 3, 0)

    def test_worked_counts_bracket_oracle(self, sec5_lifted, sec5_flag):
        """dim I^(k) = dim M - dim(D^(0) + S^(k-1)) at generic points."""
        ls = sec5_lifted
        rng = random.Random(4)
        for k in (1, 2, 3):
            fields = [ls.Y] + u_module(ls) + s_module(ls, k - 1)
            p = Point(VS, [v + rng.uniform(0.05, 0.3)
                           for v in ls.p0.as_float_tuple()])
            rows = np.array([X.at(p) for X in fields])
            expect = VS.total - numlin.rank(rows)
            assert len(sec5_flag.entry(k)) == expect

    def test_already_differential(self, sec5_lifted):
        ideal = PfaffianIdeal([DX("x1"), DX("x2")], sec5_lifted.p0)
        flag = derived_flag(ideal)
        assert len(flag.entries) == 1

    def test_zero_ideal(self, sec5_lifted):
        flag = derived_flag(PfaffianIdeal([], sec5_lifted.p0))
        assert flag.generator_counts() == (0,)

    @pytest.mark.parametrize("gens", [("x1", "x2"), ("x3", "x4")])
    def test_step_that_keeps_the_count_but_not_the_rows(
            self, monkeypatch, sec5_lifted, gens):
        """Only the ideal itself, sharing its rows, ends the flag; any
        other step must shrink, even one with the same span."""
        import tflkit.pfaffian as pfaffian

        def rebuilt(ideal):
            return PfaffianIdeal([DX(nm) for nm in gens], ideal.p0)

        monkeypatch.setattr(pfaffian, "derived_system", rebuilt)
        with pytest.raises(RegularityViolation, match="did not shrink"):
            derived_flag(PfaffianIdeal([DX("x1"), DX("x2")],
                                       sec5_lifted.p0))

    def test_lti_chain(self):
        vs = VariableSpace.canonical(3, 1)
        dt = coordinate_form(vs, 0)
        Ep = lambda s: parse_expr(s, vs)
        om = [coordinate_form(vs, "x1") - dt.scale(Ep("x2")),
              coordinate_form(vs, "x2") - dt.scale(Ep("x3")),
              coordinate_form(vs, "x3") - dt.scale(Ep("u1"))]
        p0 = simple_point(vs)
        flag = derived_flag(PfaffianIdeal(om, p0))
        assert flag.generator_counts() == (3, 2, 1, 0)

    def test_counts_non_increasing_and_ranks(self, sec5_flag, sec5_lifted):
        counts = sec5_flag.generator_counts()
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        for entry, count in zip(sec5_flag.entries, counts):
            assert numlin.rank(entry.at(sec5_lifted.p0)) == count


def _sympy_sec5(sympy):
    """The sec5 states, inputs, fields and (x0, u*), read with sympy from
    the printed problem file (no tflkit code involved)."""
    entries = {}
    for line in (PROBLEMS / "paper-sec5.tfl").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            entries[key.strip()] = value.strip()
    states = sympy.symbols(entries["states"].split())
    inputs = sympy.symbols(entries["inputs"].split())
    names = {str(v): v for v in states}

    def column(key):
        return sympy.Matrix([sympy.sympify(c.replace("^", "**"), locals=names)
                             for c in entries[key].split(",")])

    point = {v: sympy.Rational(c) for v, c in
             zip(states + inputs,
                 entries["x0"].split(",") + entries["u_star"].split(","))}
    return states, inputs, column("f"), column("g1"), column("g2"), point


class TestDerivedFlagSympyOracle:
    def test_second_count_from_brackets(self):
        """dim I^(2) = dim M - dim D^(2) for the printed sec5 system, with
        every bracket formed by sympy."""
        sympy = pytest.importorskip("sympy")
        states, inputs, f, g1, g2, point = _sympy_sec5(sympy)

        def bracket(a, b, coords):
            return b.jacobian(coords) * a - a.jacobian(coords) * b

        x = sympy.Matrix(states)
        # g1 acts only on x3 and x4; g2 depends on neither and has no x3
        # component, so the two input fields commute.
        assert sympy.expand(bracket(g1, g2, x)) == sympy.zeros(len(states), 1)
        # Hence D^(2) = span{Y, d/du, g1, g2, ad_f g1, ad_f g2}.
        fields = sympy.Matrix.hstack(g1, g2, bracket(f, g1, x),
                                     bracket(f, g2, x))
        rank = fields.subs(point).rank()
        assert rank == 4
        dim_M = 1 + len(inputs) + len(states)
        count = dim_M - (1 + len(inputs) + rank)
        assert (dim_M, count) == (10, 3)

        # The same count without the reduction to ad_f g_i: bracket all of
        # D^(1) on M = R x R^2 x R^7, at p0 and generically.
        t = sympy.Symbol("t")
        coords = sympy.Matrix([t, *inputs, *states])
        m = len(inputs)
        drift = f + inputs[0] * g1 + inputs[1] * g2
        Y = sympy.Matrix.vstack(sympy.Matrix([1]), sympy.zeros(m, 1), drift)
        d_u = [sympy.eye(dim_M).col(1 + i) for i in range(m)]
        lifted_g = [sympy.Matrix.vstack(sympy.zeros(1 + m, 1), g)
                    for g in (g1, g2)]
        D1 = [Y, *d_u, *lifted_g]
        D2 = sympy.Matrix.hstack(*D1, *[bracket(a, b, coords)
                                        for i, a in enumerate(D1)
                                        for b in D1[i + 1:]])
        p0 = {t: 0, **point}
        assert sympy.Matrix.hstack(*D1).subs(p0).rank() == 5
        assert D2.subs(p0).rank() == dim_M - count
        assert D2.rank(simplify=True) == dim_M - count

        expected = json.loads(
            (PROBLEMS / "paper-sec5.expected.json").read_text())
        assert expected["flag"]["generator_counts"][2] == count


class TestClosure:
    def test_worked_k2_closure(self, sec5_lifted, sec5_closures):
        cl = sec5_closures[2]
        assert len(cl) == 2
        p0 = sec5_lifted.p0
        target = np.array([(DX("x5") + DX("x7")).at(p0), DX("t").at(p0)])
        got = cl.at(p0)
        assert numlin.rank(got) == 2
        assert numlin.rank(np.vstack([got, target])) == 2

    def test_dt_alone_is_closed(self, sec5_lifted):
        ideal = PfaffianIdeal([DX("t")], sec5_lifted.p0)
        assert len(differential_closure(ideal)) == 1

    def test_worked_k1_closure_contains_map_differentials(self, sec5_lifted,
                                                          sec5_closures):
        """The k=1 closure must contain the differential of every component
        of the known integrated map for this system."""
        cl = sec5_closures[1]
        assert len(cl) == 6
        comps = ["x5 + x7", "x5 + x6", "1/2*x1^2 + x2*x7 - 2", "x2",
                 "x3*exp(-x4) - 4", "t"]
        for s in comps:
            assert ideal_membership(d_of_function(E(s)), cl) \
                == Membership.MEMBER

    def test_closure_is_differential(self, sec5_closures):
        for cl in sec5_closures[:4]:
            for g in cl.generators:
                assert two_form_membership(exterior_derivative(g), cl) \
                    == Membership.MEMBER


CHAIN4 = """
[system]
states = x1 x2 x3 x4
inputs = u1
f = x2 + 2*x1^2, x3 - 3*x2^2, x4 - x3^2, 0
g1 = 0, 0, 0, 1

[target]
N = x1, x2, x3, x4
x0 = 0, 0, 0, 0
u_star = 0
"""

NONHOLONOMIC = """
[system]
states = x1 x2 x3 x4
inputs = u1 u2
f = 0, 0, 0, x3
g1 = 1, 0, -x2, 0
g2 = 0, 1, x1, 0

[target]
N = x2, x3
x0 = 1, 0, 0, 0
u_star = 0, 0
"""

UNCONTROLLABLE = """
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


CLOSED_LEVEL_PLANTS = ("paper-sec5", "double-integrator", "brunovsky-chain",
                       "chain8", "chain4", "unicycle", "uncontrollable",
                       "sec5-f3=0", "sec5-f4=x4", "nonholonomic")


def _closed_level_plant(name):
    """A plant whose flag the closed-level verdict is checked on: a
    fixture, a benchmark plant, a sec5 edit with a first integral, whose
    terminal ideal is not zero, or the chained nonholonomic integrator,
    whose level 1 is not closed while t is no pivot."""
    from test_problem_cli import UNICYCLE
    from tflkit.problem import loads_problem
    if name == "chain8":
        return make_chain8()
    sec5 = (PROBLEMS / "paper-sec5.tfl").read_text(encoding="utf-8")
    texts = {
        "chain4": CHAIN4, "unicycle": UNICYCLE,
        "uncontrollable": UNCONTROLLABLE, "nonholonomic": NONHOLONOMIC,
        "sec5-f3=0": sec5.replace("x1, x3*x4, 0,", "x1, 0, 0,"),
        "sec5-f4=x4": sec5.replace("x3*x4, 0, x6", "x3*x4, x4, x6"),
    }
    text = texts.get(name) or (PROBLEMS / f"{name}.tfl").read_text(
        encoding="utf-8")
    return loads_problem(text).to_control_system()


class TestClosedLevels:
    """The derived step of I^(k) decides whether <I^(k), dt> is
    differential; a closed level's closure is <I^(k), dt> itself."""

    @pytest.mark.parametrize("name", CLOSED_LEVEL_PLANTS)
    def test_verdict_and_closure_agree_with_the_derived_flag(self, name):
        from tflkit.lift import lift_system
        flag = derived_flag(lift_system(_closed_level_plant(name)).I0)
        for k, entry in enumerate(flag.entries):
            aug = augment_with_dt(entry)
            assert flag.closed(k) == (len(derived_flag(aug).entries) == 1)
            assert flag.closure(k).rows() == differential_closure(aug).rows()

    @pytest.mark.parametrize("dx2_coeff, closed", [("x3", True),
                                                   ("1", False)])
    def test_theta_with_two_terms(self, dx2_coeff, closed):
        # omega = dt - x3 dx1 - c dx2 has t as its pivot, so theta = dt mod
        # I = x3 dx1 + c dx2.  For c = x3, d(omega) = (dx1 + dx2) ^ dx3 and
        # the two terms of theta ^ d(omega) cancel; for c = 1, d(omega) =
        # dx1 ^ dx3 and theta ^ d(omega) = dx2 ^ dx1 ^ dx3
        omega = (DX("t") - DX("x1").scale(E("x3"))
                 - DX("x2").scale(E(dx2_coeff)))
        flag = derived_flag(PfaffianIdeal([omega], simple_point(VS, x3=1)))
        assert flag.closed(0) is closed
        aug = augment_with_dt(flag.entry(0))
        assert (len(derived_flag(aug).entries) == 1) is closed

    def test_worked_level_two_is_not_closed(self, sec5_flag):
        assert [sec5_flag.closed(k) for k in range(4)] == [
            True, True, False, True]

    @pytest.mark.parametrize("name", ["sec5-f3=0", "sec5-f4=x4"])
    def test_first_integral_edits_keep_a_nonzero_terminal(self, name):
        from tflkit.lift import lift_system
        flag = derived_flag(lift_system(_closed_level_plant(name)).I0)
        assert flag.generator_counts() == (7, 5, 3, 1)


class TestDtDependentAtBasePoint:
    """<x1 dx1 + dt> is differential, so its level is closed and no closure
    is derived for it; but at x1 = 0 dt lies in its span, and reading the
    level raises as augmenting it does."""

    @staticmethod
    def flag():
        p0 = simple_point(VS)
        return derived_flag(PfaffianIdeal([DX("x1").scale(E("x1")) + DX("t")],
                                          p0))

    def augment_error(self):
        with pytest.raises(RegularityViolation) as err:
            augment_with_dt(self.flag().entry(0))
        return str(err.value)

    def test_closure(self):
        flag = self.flag()
        assert flag.closed(0)
        with pytest.raises(RegularityViolation) as err:
            flag.closure(0)
        assert str(err.value) == self.augment_error()

    @pytest.mark.parametrize("read", ["evaluate_conditions", "dim_table",
                                      "check_con", "rho_indices"])
    def test_conditions(self, read, sec5_lifted):
        import tflkit.conditions as conditions
        import _checks
        calls = {
            "evaluate_conditions": lambda f: conditions.evaluate_conditions(
                sec5_lifted, f),
            "dim_table": lambda f: _checks.dim_table(
                sec5_lifted, f, [sec5_lifted.p0]),
            "check_con": lambda f: _checks.check_con(sec5_lifted, f),
            "rho_indices": lambda f: _checks.rho_indices(sec5_lifted, f),
        }
        with pytest.raises(RegularityViolation) as err:
            calls[read](self.flag())
        assert str(err.value) == self.augment_error()


class TestPointwiseSpan:
    def test_terminal_is_empty(self, sec5_flag, sec5_lifted):
        m = pointwise_span(sec5_flag.entry(3), sec5_lifted.p0)
        assert m.shape[0] == 0

    def test_dt_row(self, sec5_lifted):
        ideal = PfaffianIdeal([DX("t")], sec5_lifted.p0)
        m = pointwise_span(ideal, sec5_lifted.p0)
        assert m.shape == (1, VS.total)
        assert m[0, 0] == 1.0

    def test_rank_five(self, sec5_flag, sec5_lifted):
        assert pointwise_span(sec5_flag.entry(1), sec5_lifted.p0).shape[0] == 5


class TestRegularity:
    def test_degenerate_generators_rejected(self, sec5_lifted):
        # x2 vanishes at x0, so x2*dx1 is pointwise zero there
        with pytest.raises(RegularityViolation):
            PfaffianIdeal([DX("x1").scale(E("x2"))], sec5_lifted.p0)


class TestRankBeforeNormalising:
    def test_sec5_last_step(self, monkeypatch, sec5_flag):
        """The exact ranks of sec5's last derived step read the
        denominator-cleared rows and make primitive only the rows that
        vanish at p0; each rank equals the fully primitive matrix's."""
        import tflkit.pfaffian as pfaffian

        row_primitive = pfaffian._row_primitive
        sample_ranks = pfaffian._sample_ranks
        made, seen = [], []

        def primitive_spy(row):
            made.append(row)
            return row_primitive(row)

        def ranks_spy(matrix, p0, exact, primitive_row):
            seen.append((matrix, p0, exact, []))
            for perturbed, r in sample_ranks(matrix, p0, exact,
                                             primitive_row):
                seen[-1][3].append(r)
                yield perturbed, r

        monkeypatch.setattr(pfaffian, "_row_primitive", primitive_spy)
        monkeypatch.setattr(pfaffian, "_sample_ranks", ranks_spy)
        ideal = sec5_flag.entry(2)
        assert len(derived_system(ideal)) == 0
        (matrix, p0, exact, ranks), = seen
        assert exact and ranks == [2, 3]
        vanishing = [row for row in matrix
                     if all(c.eval(p0) == 0 for c in row)]
        # once each, and only the rows that vanish at p0: 5 of 10
        assert len(made) == len(vanishing) == 5 and len(matrix) == 10
        assert {id(r) for r in made} == {id(r) for r in vanishing}
        primitive = [row_primitive(row) for row in matrix]
        points = [p0] + pfaffian.perturbed_points(p0)
        for p, r in zip(points, ranks):
            assert r == numlin.exact_rank(
                [[c.eval(p) for c in row] for row in primitive])


class TestCoprimeDenominators:
    def test_sec5_last_step(self, monkeypatch, sec5_flag):
        """The pivot entries of sec5's last derived step are associates of
        one 7-term f and of x1*f.  Keyed by a coprime base, the shared
        denominator of the conditions is x1*f^2, and the cleared rows stay
        within about 4.5x of their primitive parts (455 terms)."""
        import tflkit.expr as expr
        import tflkit.pfaffian as pfaffian

        assemble = pfaffian._assemble_pieces
        sample_ranks = pfaffian._sample_ranks
        needs, matrices = [], []

        def assemble_spy(vars0, pieces, need):
            needs.append(need)
            return assemble(vars0, pieces, need)

        def ranks_spy(matrix, p0, exact, primitive_row):
            matrices.append(matrix)
            yield from sample_ranks(matrix, p0, exact, primitive_row)

        monkeypatch.setattr(pfaffian, "_assemble_pieces", assemble_spy)
        monkeypatch.setattr(pfaffian, "_sample_ranks", ranks_spy)
        ideal = sec5_flag.entry(2)
        assert len(derived_system(ideal)) == 0
        need = needs[0]
        assert all(n == need for n in needs)
        (x1, one), (f, two) = sorted(need.items(), key=lambda kv: kv[1])
        assert (x1, one, two) == (E("x1"), 1, 2)
        assert len(f.num) == 7
        assert decode(expr._ip_cofactors(x1.num, f.num)[0]) == {(): 1}
        rows, pivots = ideal.rows()
        assert {row[pc] / f for row, pc in zip(rows, pivots)} \
            <= {E("1"), E("-1"), E("x1"), E("-x1")}
        (matrix,) = matrices
        assert len(matrix) == 10
        assert sum(len(c.num) for row in matrix for c in row) <= 2100


class TestKnownFactors:
    """Rows are divided by the factors the elimination knows before any row
    gcd: the base elements of a derived step's shared denominator, and the
    Bareiss pivots."""

    def test_sec5_last_step_rows(self, monkeypatch, sec5_flag):
        """On sec5's last derived step the shared denominator x1*f^2
        over-clears every condition row by f.  Divided by x1 and f where
        they divide, no base element divides a whole row that reaches the
        rank step, the rows hold 476 terms (2049 cleared) and their
        primitive rows are those of the cleared rows."""
        import tflkit.expr as expr
        import tflkit.pfaffian as pfaffian

        divide = pfaffian.divide_by_factors
        sample_ranks = pfaffian._sample_ranks
        cleared, matrices = {}, []

        def divide_spy(row, factors):
            factors = list(factors)
            out = divide(row, factors)
            cleared[id(out)] = (row, factors)
            return out

        def ranks_spy(matrix, p0, exact, primitive_row):
            matrices.append(matrix)
            yield from sample_ranks(matrix, p0, exact, primitive_row)

        monkeypatch.setattr(pfaffian, "divide_by_factors", divide_spy)
        monkeypatch.setattr(pfaffian, "_sample_ranks", ranks_spy)
        assert len(derived_system(sec5_flag.entry(2))) == 0
        (matrix,) = matrices
        assert len(matrix) == 10
        for row in matrix:
            before, factors = cleared[id(row)]
            assert sorted(len(b.num) for b in factors) == [1, 7]
            assert divide_by_gcd(row) == divide_by_gcd(before)
            for b in factors:
                assert not all(expr._ip_divexact(c.num, b.num) is not None
                               for c in row)
        assert sum(len(c.num) for row in matrix for c in row) <= 480
        assert sum(len(c.num) for row, _ in cleared.values()
                   for c in row) > 2000

    def test_fewer_row_gcds_in_a_sec5_solve(self, monkeypatch):
        """The gcds under divide_by_gcd see only cofactors: a sec5 solve
        makes fewer _ip_cofactors calls there than without the step (82
        against 105 when this was written), and its report is the same."""
        import tflkit.expr as expr
        import tflkit.pfaffian as pfaffian
        from tflkit.problem import cmd_solve, dumps_report, load_problem

        depth, calls = [0], [0]
        cofactors, by_gcd = expr._ip_cofactors, pfaffian.divide_by_gcd

        def cofactors_spy(A, B):
            calls[0] += depth[0] > 0
            return cofactors(A, B)

        def by_gcd_spy(row):
            depth[0] += 1
            try:
                return by_gcd(row)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(expr, "_ip_cofactors", cofactors_spy)
        monkeypatch.setattr(pfaffian, "divide_by_gcd", by_gcd_spy)

        def solve():
            calls[0] = 0
            _, tree, code = cmd_solve(load_problem(PROBLEMS
                                                   / "paper-sec5.tfl"))
            return dumps_report(tree), code, calls[0]

        report, code, with_factors = solve()
        monkeypatch.setattr(pfaffian, "divide_by_factors",
                            lambda row, factors: row)
        report_without, code_without, without = solve()
        assert (report, code) == (report_without, code_without)
        assert code == 0
        assert with_factors < without


class TestTwoFormMembershipAssociates:
    """two_form_membership, the closure check of frobenius_integrate, keys
    its denominators by the same coprime base.  The pivot entries of this
    ideal over (t, u1, x1..x5), p0 at x1 = 1, are -2, -2f, 2f and 2*x1*f
    for f = x1*x5 + x4^2 + 2: one elimination, whose Bareiss factor 2 comes
    from the first pivot -2.  The verdicts were recorded while each pivot
    entry was still a factor of its own."""

    VS5 = VariableSpace.canonical(5, 1)
    F = "x1*x5 + x4^2 + 2"
    # name -> (verdict, shared denominator as {printed factor: multiplicity})
    EXPECTED = {
        "dw0": ("non-member", {F: 1}),
        "dw1": ("non-member", {F: 1}),
        "dw2": ("non-member", {F: 2}),
        "dw3": ("non-member", {"x1": 1, F: 2}),
        "w1^w2": ("member", {F: 2}),
        "w2^dx4": ("member", {F: 1}),
        "w1^x2dx5 + w3^dt": ("member", {"x1": 1, F: 1}),
        "w0^dx1": ("member", {F: 1}),
        "dx1^dx2": ("member", {F: 2}),
        "dx1^dx3": ("non-member", {"x1": 1, F: 2}),
        "dx4^dx5": ("non-member", {}),
        "du1^dx2": ("non-member", {F: 1}),
        "du1^dx5": ("non-member", {}),
    }

    def test_verdicts_and_denominators(self, monkeypatch):
        import tflkit.pfaffian as pfaffian

        E5 = lambda s: parse_expr(s, self.VS5)
        dx = lambda nm: coordinate_form(self.VS5, nm)
        w0 = dx("t").scale(E5("x2")) - dx("u1").scale(E5("2"))
        w1 = dx("x1").scale(E5(self.F)) + dx("x4").scale(E5("x5"))
        w2 = dx("x2").scale(E5(f"-({self.F})")) \
            + dx("x4").scale(E5("x1 + 1"))
        w3 = dx("x3").scale(E5(f"x1*({self.F})")) \
            + dx("x5").scale(E5("x4 - 3"))
        ideal = PfaffianIdeal([w0, w1, w2, w3],
                              simple_point(self.VS5, x1=1))
        rows, pivots = ideal.rows()
        assert [str(row[pc]) for row, pc in zip(rows, pivots)] == [
            "-2", "-2*x1*x5 - 2*x4^2 - 4", "2*x1*x5 + 2*x4^2 + 4",
            "2*x1^2*x5 + 2*x1*x4^2 + 4*x1"]
        cases = {
            "dw0": exterior_derivative(w0),
            "dw1": exterior_derivative(w1),
            "dw2": exterior_derivative(w2),
            "dw3": exterior_derivative(w3),
            "w1^w2": wedge(w1, w2),
            "w2^dx4": wedge(w2, dx("x4")),
            "w1^x2dx5 + w3^dt": wedge(w1, dx("x5").scale(E5("x2")))
            + wedge(w3, dx("t")),
            "w0^dx1": wedge(w0, dx("x1")),
            "dx1^dx2": wedge(dx("x1"), dx("x2")),
            "dx1^dx3": wedge(dx("x1"), dx("x3")),
            "dx4^dx5": wedge(dx("x4"), dx("x5")),
            "du1^dx2": wedge(dx("u1"), dx("x2")),
            "du1^dx5": wedge(dx("u1"), dx("x5")),
        }
        assemble = pfaffian._assemble_pieces
        needs = []

        def spy(vars0, pieces, need):
            needs.append(need)
            return assemble(vars0, pieces, need)

        monkeypatch.setattr(pfaffian, "_assemble_pieces", spy)
        seen = {}
        for name, w in cases.items():
            verdict = two_form_membership(w, ideal)
            seen[name] = (verdict, {str(e): m for e, m in needs[-1].items()})
            # no constant is ever a factor: -2 is a unit of its numerator
            assert all(e.as_rational() is None for e in needs[-1])
        assert len(needs) == len(cases)
        assert seen == self.EXPECTED


class TestOneEchelonPerIdeal:
    """An ideal is echelonized once, when it is built: `rows()` reads that
    echelon, whose rows are the generators, and an ideal with another's
    generators (an unchanged derived step, a closure) shares its rows."""

    def test_rows_read_the_construction_echelon(self, monkeypatch,
                                                sec5_flag):
        import tflkit.pfaffian as pfaffian

        ideals = []
        for k in range(sec5_flag.terminal_index + 1):
            ideals += [sec5_flag.entry(k), sec5_flag.augmented(k),
                       sec5_flag.closure(k)]
        rref = pfaffian.rref_function_field
        calls = []

        def spy(rows, p0=None):
            calls.append(len(rows))
            return rref(rows, p0)

        monkeypatch.setattr(pfaffian, "rref_function_field", spy)
        for ideal in ideals:
            rows, pivots = ideal.rows()
            assert len(rows) == len(pivots) == len(ideal)
            assert rows == [[g.coefficient((i,)) for i in range(VS.total)]
                            for g in ideal.generators]
        assert calls == []

    def test_relabelled_ideals_share_rows(self, monkeypatch, sec5_flag):
        import tflkit.pfaffian as pfaffian

        derived_flag_ = pfaffian.derived_flag
        flags = []

        def spy(ideal, max_steps=None):
            flags.append(derived_flag_(ideal, max_steps))
            return flags[-1]

        def assert_shared(ideal, source):
            rows, pivots = ideal.rows()
            src_rows, src_pivots = source.rows()
            assert pivots is src_pivots and len(rows) == len(src_rows)
            assert all(a is b for a, b in zip(rows, src_rows))

        monkeypatch.setattr(pfaffian, "derived_flag", spy)
        for k in range(sec5_flag.terminal_index + 1):
            closure = differential_closure(sec5_flag.augmented(k))
            assert closure.provenance == f"closure-of I({k})+dt"
            assert_shared(closure, flags[-1].entries[-1])
            # a closure is differential, so its derived step is unchanged
            derived = derived_system(closure)
            assert derived.provenance == "derived-from"
            assert_shared(derived, closure)


class TestDerivedSystemCertification:
    """derived_system's rank certification on hand-built ideals over
    (t, u1, x1, x2, x3), p0 = 0.  The conditions matrix of the first pair has
    rows (u1, x1), (x1, -u1), (u1, 0) up to sign and row scaling: rank 1 at
    p0, rank 2 wherever u1 or x1 is nonzero."""

    VS3 = VariableSpace.canonical(3, 1)

    def _form(self, s):
        return parse_expr(s, self.VS3)

    def _dx(self, nm):
        return coordinate_form(self.VS3, nm)

    def _ideal(self, a="u1^2/2", b="u1*x1"):
        # omega1 = dx2 - a dx1 - b dt,  omega2 = dx3 - b dx1 + a dt
        w1 = self._dx("x2") - self._dx("x1").scale(self._form(a)) \
            - self._dx("t").scale(self._form(b))
        w2 = self._dx("x3") - self._dx("x1").scale(self._form(b)) \
            + self._dx("t").scale(self._form(a))
        return PfaffianIdeal([w1, w2], simple_point(self.VS3))

    def test_full_rank_at_perturbed_point_gives_zero(self, monkeypatch):
        seen = []
        exact_rank = numlin.exact_rank

        def spy(rows):
            seen.append(exact_rank(rows))
            return seen[-1]

        monkeypatch.setattr(numlin, "exact_rank", spy)
        out = derived_system(self._ideal())
        assert len(out) == 0
        # rank 1 at p0, then full rank at the first perturbed point stops
        # the evaluation there
        assert seen == [1, 2]

    def test_generic_rank_never_reached_raises(self, monkeypatch):
        import tflkit.pfaffian as pfaffian
        from fractions import Fraction

        def on_degenerate_locus(p0, count=8, seed=1):
            # u1 = x1 = 0: every sample point keeps rank 1 < 2
            return [simple_point(self.VS3, t=Fraction(k, 3), x2=k,
                                 x3=Fraction(-k, 2))
                    for k in range(1, count + 1)]

        monkeypatch.setattr(pfaffian, "perturbed_points",
                            on_degenerate_locus)
        with pytest.raises(RegularityViolation, match="not attained"):
            derived_system(self._ideal())

    def test_kernel_matrix_takes_float_path(self, monkeypatch):
        def no_exact(rows):
            raise AssertionError("kernel-bearing matrix ranked exactly")

        ranked = []
        rank = numlin.rank

        def spy(a):
            a = np.atleast_2d(np.asarray(a, dtype=float))
            if a.shape[1] == 2:  # the two-generator conditions matrix
                ranked.append(rank(a))
            return rank(a)

        monkeypatch.setattr(numlin, "exact_rank", no_exact)
        monkeypatch.setattr(numlin, "rank", spy)
        out = derived_system(self._ideal(a="1 - cos(u1)", b="sin(u1)*x1"))
        assert len(out) == 0
        # float ranks at the eight perturbed points only, never at p0,
        # where every entry vanishes
        assert ranked == [2] * 8


class TestNoRepeatedWork:
    @staticmethod
    def _membership_spy(monkeypatch):
        import tflkit.pfaffian as pfaffian
        calls = []
        real = pfaffian.ideal_membership

        def spy(a, ideal):
            calls.append(ideal.provenance)
            return real(a, ideal)

        monkeypatch.setattr(pfaffian, "ideal_membership", spy)
        return calls

    def test_differential_ideal_flag_asks_no_membership(
            self, monkeypatch, sec5_closures, chain3):
        from tflkit.lift import lift_system
        chain3_flag = derived_flag(lift_system(chain3).I0)
        ideals = list(sec5_closures) + [chain3_flag.closure(k)
                                        for k in range(3)]
        calls = self._membership_spy(monkeypatch)
        for ideal in ideals:
            flag = derived_flag(ideal)
            # one step, which finds the ideal differential and keeps it
            assert flag.generator_counts() == (len(ideal),)
        assert calls == []

    def test_augmenting_an_echelon_divides_once_per_row(self, monkeypatch):
        import tflkit.pfaffian as pfaffian
        from tflkit.lift import lift_system
        flag = derived_flag(lift_system(make_chain8()).I0)
        calls = []
        real = pfaffian.exact_quotient

        def spy(e, d):
            calls.append(1)
            return real(e, d)

        monkeypatch.setattr(pfaffian, "exact_quotient", spy)
        counts = []
        for entry in flag.entries:
            del calls[:]
            augment_with_dt(entry)
            counts.append((len(entry) + 1, len(calls)))
        assert [rows for rows, _ in counts] == list(range(9, 0, -1))
        # eager Bareiss scaling rescales every row below each pivot, about
        # rows^2 * columns / 2 quotients; caught up lazily, each row of the
        # echelon is divided at most once
        for rows, n in counts:
            assert n <= rows

    def test_perturbed_points_built_once_per_point(self):
        from tflkit.pfaffian import perturbed_points
        p0 = simple_point(VS, x1=2, x3=4)
        pts = perturbed_points(p0)
        assert len(pts) == 8
        assert perturbed_points(p0) is pts
        other = Point(VS, p0.values)
        again = perturbed_points(other)
        assert again is not pts
        assert [p.values for p in again] == [p.values for p in pts]
        assert all(p.values[i] != p0.values[i]
                   for p in pts for i in range(VS.total))


def _flag_and_closure_ideals(flag):
    """Every entry of a flag, each <I^(k), dt> and every entry of its
    derived flag, and each closure."""
    ideals = list(flag.entries)
    for k in range(len(flag.entries)):
        aug = flag.augmented(k)
        ideals += derived_flag(aug).entries + [flag.closure(k)]
    return ideals


class TestPointwiseEmptying:
    """derived_flag asks at one exact point whether a derived step empties
    the ideal (`_empties_at_a_point`) before assembling its symbolic
    conditions; where the point decides, the step is the one
    derived_system would have taken."""

    def test_decided_steps_agree_with_derived_system(self, chain3,
                                                     sec5_flag,
                                                     sec5_closures):
        import tflkit.pfaffian as pfaffian
        from tflkit.lift import lift_system
        ideals = list(sec5_closures) + _flag_and_closure_ideals(sec5_flag)
        for system in (chain3, make_chain8()):
            ideals += _flag_and_closure_ideals(
                derived_flag(lift_system(system).I0))
        decided = [ideal for ideal in ideals
                   if pfaffian._empties_at_a_point(ideal)]
        assert any(ideal is sec5_flag.entry(2) for ideal in decided)
        for ideal in decided:
            assert len(ideal) > 0
            assert len(derived_system(ideal)) == 0
            assert ideal._dt_closed is False

    def test_undecided_steps_stop_at_the_first_dependent_class(
            self, monkeypatch, sec5_flag):
        """On I^(0), I^(1) and <I^(2), dt> of sec5 the classes at the point
        have rank below the generator count; the test stops at the first
        class that does not raise their rank."""
        import tflkit.pfaffian as pfaffian
        real, counts = pfaffian._two_form_class_at, []

        def spy(w, classes, p):
            counts[-1] += 1
            return real(w, classes, p)

        monkeypatch.setattr(pfaffian, "_two_form_class_at", spy)
        for ideal in (sec5_flag.entry(0), sec5_flag.entry(1),
                      sec5_flag.augmented(2)):
            counts.append(0)
            assert not pfaffian._empties_at_a_point(ideal)
        assert counts == [1, 2, 1]
        assert [len(sec5_flag.entry(0)), len(sec5_flag.entry(1)),
                len(sec5_flag.augmented(2))] == [7, 5, 4]

    def test_sec5_solve_skips_the_last_assembly(self, monkeypatch,
                                                sec5_flag):
        """The last derived step of sec5 is decided at a point: a solve
        runs derived_system 4 times (5 without the point), and never
        assembles conditions over that step's shared denominator x1*f^2."""
        import tflkit.pfaffian as pfaffian
        from tflkit.problem import cmd_solve, load_problem

        assemble, real = pfaffian._assemble_pieces, pfaffian.derived_system
        needs, calls = [], []

        def assemble_spy(vars0, pieces, need):
            needs.append(need)
            return assemble(vars0, pieces, need)

        def derived_spy(ideal):
            calls.append(len(ideal))
            return real(ideal)

        monkeypatch.setattr(pfaffian, "_assemble_pieces", assemble_spy)
        real(sec5_flag.entry(2))
        last_step = needs[-1]
        assert sorted(last_step.values()) == [1, 2]
        monkeypatch.setattr(pfaffian, "derived_system", derived_spy)
        del needs[:]
        _, _, code = cmd_solve(load_problem(PROBLEMS / "paper-sec5.tfl"))
        assert code == 0
        assert len(calls) == 4 and 3 not in calls
        assert needs and last_step not in needs

    def test_vanishing_pivot_falls_back(self, monkeypatch):
        """At a first perturbed point on the zero set of a pivot of I^(2)
        the point cannot decide, and derived_system takes the step."""
        import tflkit.pfaffian as pfaffian
        from conftest import make_sec5_system
        from tflkit.lift import lift_system

        I0 = lift_system(make_sec5_system()).I0
        real_points = pfaffian.perturbed_points(I0.p0)
        # the pivots of I^(2) are associates of f and x1*f, and
        # f = -x1^2 (x3 + 3) where x2 = 0
        bad = real_points[0].replace(x2=0, x3=-3)
        monkeypatch.setattr(pfaffian, "perturbed_points",
                            lambda p0: [bad] + real_points)
        real, seen = pfaffian.derived_system, []

        def derived_spy(ideal):
            seen.append(ideal)
            return real(ideal)

        monkeypatch.setattr(pfaffian, "derived_system", derived_spy)
        flag = derived_flag(I0)
        assert flag.generator_counts() == (7, 5, 3, 0)
        assert [flag.closed(k) for k in range(4)] == [True, True, False,
                                                      True]
        entry = flag.entry(2)
        assert seen[-1] is entry
        rows, pivots = entry.rows()
        assert any(row[pc].eval(bad) == 0 for row, pc in zip(rows, pivots))

    def test_closed_level_falls_back(self, monkeypatch):
        """omega = (1 + x1) dx2 + x3 dt has the pivot 1 + x1 and rank 1 at
        the point, so I' = 0; but d(omega) = dx1 ^ dx2 + dx3 ^ dt is
        dt ^ (...) modulo omega, so theta ^ (d(omega) mod I) is zero, the
        point cannot tell the level open, and derived_system decides it
        closed."""
        import tflkit.pfaffian as pfaffian
        omega = DX("x2").scale(E("1 + x1")) + DX("t").scale(E("x3"))
        ideal = PfaffianIdeal([omega], simple_point(VS))
        (row,), (pc,) = ideal.rows()
        assert (pc, row[pc]) == (VS.index("x2"), E("1 + x1"))
        classes, real_classes = [], pfaffian._classes_at
        calls, real = [], pfaffian.derived_system

        def classes_spy(rows, pivots, p):
            classes.append(real_classes(rows, pivots, p))
            return classes[-1]

        def derived_spy(ideal):
            calls.append(ideal)
            return real(ideal)

        monkeypatch.setattr(pfaffian, "_classes_at", classes_spy)
        monkeypatch.setattr(pfaffian, "derived_system", derived_spy)
        flag = derived_flag(ideal)
        assert classes and calls[0] is ideal
        assert flag.generator_counts() == (1, 0)
        assert flag.closed(0)
        assert len(derived_flag(augment_with_dt(ideal)).entries) == 1

    def test_constant_pivots_and_kernels_evaluate_no_point(self,
                                                           monkeypatch):
        import tflkit.pfaffian as pfaffian
        from tflkit.lift import lift_system

        chain8 = derived_flag(lift_system(make_chain8()).I0)
        cert = TestDerivedSystemCertification()
        vs3 = cert.VS3
        # a kernel-bearing ideal whose first pivot, 1 + x1, is no constant
        kernel = PfaffianIdeal(
            [cert._dx("x2").scale(parse_expr("1 + x1", vs3))
             - cert._dx("x1").scale(parse_expr("sin(u1)", vs3)),
             cert._dx("x3") + cert._dx("t").scale(
                 parse_expr("1 - cos(u1)", vs3))],
            simple_point(vs3))
        rows, pivots = kernel.rows()
        assert any(row[pc].as_rational() is None
                   for row, pc in zip(rows, pivots))

        def no_point(p0):
            raise AssertionError("the pointwise test evaluated a point")

        monkeypatch.setattr(pfaffian, "perturbed_points", no_point)
        ideals = [cert._ideal(a="1 - cos(u1)", b="sin(u1)*x1"), kernel]
        ideals += chain8.entries
        for ideal in ideals:
            assert not pfaffian._empties_at_a_point(ideal)


# sec5's drift and input fields, as the fixture file states them
SEC5_FIELDS = {
    "f": ["-x2", "x1", "x3*x4", "0", "x6", "x7 + x6 - x3*x5", "x5"],
    "g1": ["0", "0", "x3", "1", "0", "0", "0"],
    "g2": ["-x2", "0", "0", "0", "-x1", "x1", "x1"],
}
SEC5_REPLACEMENTS = ("0", "1", "x1", "x3", "x4", "x1*x2")


def sec5_edits():
    """The single-entry edits of sec5: each entry of f, g1 and g2 replaced
    by one of SEC5_REPLACEMENTS where that differs (112 edits)."""
    return [(field, i, text)
            for field, entries in SEC5_FIELDS.items()
            for i, old in enumerate(entries)
            for text in SEC5_REPLACEMENTS if text != old]


def sec5_edit_system(field, index, text):
    from conftest import make_sec5_system
    from tflkit.lift import ControlSystem
    base = make_sec5_system()
    vs = base.vars
    fields = {name: [parse_expr(s, vs) for s in entries]
              for name, entries in SEC5_FIELDS.items()}
    fields[field][index] = parse_expr(text, vs)
    return ControlSystem(vs, fields["f"], [fields["g1"], fields["g2"]],
                         base.N_defs, base.x0, base.u_star)


def _flag_outcome(edit):
    """The derived flag of an edit's lifted I0 as (counts, closed verdicts,
    echelon rows), or the error it raises."""
    from tflkit.errors import TflError
    from tflkit.lift import lift_system
    try:
        flag = derived_flag(lift_system(sec5_edit_system(*edit)).I0)
    except TflError as exc:
        return type(exc).__name__, str(exc)
    return (flag.generator_counts(),
            [flag.closed(k) for k in range(len(flag.entries))],
            [entry.rows() for entry in flag.entries])


def _lifts(edit):
    from tflkit.errors import TflError
    from tflkit.lift import lift_system
    try:
        lift_system(sec5_edit_system(*edit))
    except TflError:
        return False
    return True


class TestPointwiseEmptyingSweep:
    """On a seeded subset of the sec5 edits that lift (81 of 112), the flag
    with the pointwise test equals the flag without it: counts, closed
    verdicts and echelon rows, or the same error."""

    def test_edits(self, monkeypatch):
        import tflkit.pfaffian as pfaffian
        edits = sec5_edits()
        assert len(edits) == 112
        chosen = random.Random(25).sample(
            [e for e in edits if _lifts(e)], 24)
        real, decided = pfaffian._empties_at_a_point, []

        def spy(ideal):
            decided.append(real(ideal))
            return decided[-1]

        monkeypatch.setattr(pfaffian, "_empties_at_a_point", spy)
        with_point = [_flag_outcome(e) for e in chosen]
        assert sum(decided) >= 8
        monkeypatch.setattr(pfaffian, "_empties_at_a_point",
                            lambda ideal: False)
        without = [_flag_outcome(e) for e in chosen]
        for edit, a, b in zip(chosen, with_point, without):
            assert a == b, edit
