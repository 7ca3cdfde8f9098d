"""Sampling, intersection dimensions, indices, and the three conditions."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import tflkit.conditions as conditions
import tflkit.numlin as numlin
from tflkit.errors import PointNotOnL, RankDeficientN
from tflkit.expr import Expr, VariableSpace, parse_expr
from tflkit.lift import ControlSystem, ann_tangent_L, lift_system
from tflkit.pfaffian import augment_with_dt, derived_flag
from tflkit.problem import cmd_check, cmd_solve, load_problem, loads_problem
from tflkit.conditions import (_span_with_dt, evaluate_conditions,
                               sample_on_N)
from conftest import (make_chain3, make_chain8, make_double_integrator,
                      make_sec5_system)
from _checks import (check_con, check_dim, check_inv, dim_table,
                     intersection_dimension, rho_indices)

FIXTURES = sorted((Path(__file__).resolve().parent.parent
                   / "problems").glob("*.tfl"))


def spy_batches(monkeypatch):
    """The number of pairs in each `numlin.intersection_dims` call, as
    the package makes them."""
    sizes = []
    dims = numlin.intersection_dims

    def counted(A, Bs):
        sizes.append(len(Bs))
        return dims(A, Bs)
    monkeypatch.setattr(numlin, "intersection_dims", counted)
    return sizes


def build(vs_dims, f_strs, g_cols, n_strs, x0, ustar_strs):
    vs = VariableSpace.canonical(*vs_dims)
    E = lambda s: parse_expr(s, vs)
    return ControlSystem(vs, [E(s) for s in f_strs],
                         [[E(s) for s in col] for col in g_cols],
                         [E(s) for s in n_strs], x0,
                         [E(s) for s in ustar_strs])


def nonholonomic():
    """The chained nonholonomic integrator, lifted: (ls, flag, closures,
    samples)."""
    sys = build((4, 2),
                ["0", "0", "0", "x3"],
                [["1", "0", "-x2", "0"], ["0", "1", "x1", "0"]],
                ["x2", "x3"], [1, 0, 0, 0], ["0", "0"])
    ls = lift_system(sys)
    flag = derived_flag(ls.I0)
    return (ls, flag, [flag.closure(k) for k in range(3)],
            sample_on_N(sys, 6, seed=0))


class TestSampling:
    def test_worked_samples_satisfy_defs(self, sec5):
        pts = sample_on_N(sec5, 4, seed=0)
        assert len(pts) == 4
        for p in pts:
            for phi in sec5.N_defs:
                assert abs(float(phi.eval(p))) <= 1e-10

    def test_tiny_radius_returns_x0(self, sec5):
        pts = sample_on_N(sec5, 1, radius=1e-9, seed=0)
        x0 = np.array(sec5.x0_point().as_float_tuple())
        assert np.allclose(np.array(pts[0].as_float_tuple()), x0, atol=1e-6)

    def test_isolated_point_target(self, chain3):
        pts = sample_on_N(chain3, 3, seed=0)
        for p in pts:
            assert np.allclose(np.array(p.as_float_tuple()), 0.0, atol=1e-10)

    def test_determinism(self, sec5):
        a = sample_on_N(sec5, 3, seed=5)
        b = sample_on_N(sec5, 3, seed=5)
        assert [p.values for p in a] == [p.values for p in b]

    def test_samples_bind_u_star(self):
        sys = build((2, 1), ["x2", "x1"], [["0", "1"]], ["x2"], [1, 0],
                    ["-x1"])
        pts = sample_on_N(sys, 2, seed=1)
        for p in pts:
            assert abs(float(p.of("u1")) + float(p.of("x1"))) < 1e-9

    def test_point_target_samples_evaluate_u_star_at_the_point(self):
        # x0 lies within _VANISH_TOL of N = {(1, 0)} but not on it, and
        # u* = -x1 differs there: each sample is N's point with u*(q)
        x0 = [1 + Fraction(1, 10**12), 0]
        sys = build((2, 1), ["x2", "x1"], [["0", "1"]], ["x1 - 1", "x2"],
                    x0, ["-x1"])
        assert sys.x0_point().of("u1") == -x0[0]
        pts = sample_on_N(sys, 4, seed=0)
        assert len(pts) == 4
        for p in pts:
            assert all(isinstance(v, Fraction) for v in p.values)
            assert p.values == (0, -1, 1, 0)
            assert p.of("u1") == sys.u_star[0].eval(p)


class TestExactSamples:
    """Where the reduction solves every defining function, the samples are
    exact points of N and no Newton step is taken."""

    SYSTEMS = {**{p.stem: lambda p=p: load_problem(p).to_control_system()
                  for p in FIXTURES},
               "chain3": make_chain3, "chain8": make_chain8,
               "sec5": make_sec5_system}

    @staticmethod
    def spy_lstsq(monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        return calls

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_rational_points_of_N_without_newton(self, name, monkeypatch):
        sys = self.SYSTEMS[name]()
        calls = self.spy_lstsq(monkeypatch)
        pts = sample_on_N(sys, 8, seed=0)
        assert len(pts) == 8
        for p in pts:
            assert all(isinstance(v, Fraction) for v in p.values)
            assert all(phi.eval(p) == 0 for phi in sys.N_defs)
        assert calls == []

    def test_draw_where_a_binding_is_undefined_is_skipped(self):
        # x1 = 1/(x2 - e) with e one grid step from x0's x2 = 0: a draw
        # rounded to that step leaves x1 undefined
        e = Fraction(1, 2**20)
        sys = build((2, 1), ["0", "0"], [["0", "1"]],
                    [f"x1 - 1/(x2 - {e})"], [-1 / e, 0], ["0"])
        pts = sample_on_N(sys, 20, radius=float(e), seed=0)
        assert len(pts) == 20
        for p in pts:
            assert p.of("x2") != e
            assert sys.N_defs[0].eval(p) == 0

    def test_unit_circle_projects_by_newton(self, monkeypatch):
        # no defining function of the circle is linear in a state
        vs = VariableSpace.canonical(2, 1)
        E = lambda s: parse_expr(s, vs)
        sys = ControlSystem(vs, [E("-x2"), E("x1")], [[E("x1"), E("x2")]],
                            [E("x1^2 + x2^2 - 1")], [1, 0], [E("0")])
        calls = self.spy_lstsq(monkeypatch)
        assert len(sample_on_N(sys, 3)) == 3
        assert calls

    def test_unicycle_projects_by_newton(self, monkeypatch):
        from test_problem_cli import UNICYCLE
        calls = self.spy_lstsq(monkeypatch)
        _, tree, _ = cmd_solve(loads_problem(UNICYCLE))
        assert calls
        assert sum("samples only" in w for w in tree["warnings"]) == 4

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.stem)
    def test_dimension_table_constant_over_seeds(self, path):
        # no rounded draw lands where a rank drops
        problem = load_problem(path)
        for seed in range(20):
            report, _, _ = cmd_check(problem, {"seed": seed})
            table = report.conditions.dim_table
            assert len(table) == 9
            assert all(row == table["p0"] for row in table.values()), seed


class TestIntersectionDimension:
    def test_worked_levels(self, sec5_lifted, sec5_flag, sec5_closures):
        ls = sec5_lifted
        dims_raw = [intersection_dimension(
            ls, augment_with_dt(sec5_flag.entry(k)), ls.p0)
            for k in range(6)]
        assert dims_raw == [6, 4, 2, 1, 1, 1]
        dims_closed = [intersection_dimension(ls, sec5_closures[k], ls.p0)
                       for k in range(6)]
        assert dims_closed == dims_raw

    def test_point_off_l(self, sec5_lifted, sec5_closures):
        with pytest.raises(PointNotOnL):
            intersection_dimension(sec5_lifted, sec5_closures[0],
                                   sec5_lifted.p0.replace(t=1))


class TestRhoIndices:
    def test_worked_profile(self, sec5_lifted, sec5_flag):
        prof = rho_indices(sec5_lifted, sec5_flag)
        assert prof.rho == [2, 2, 1, 0]
        assert prof.kappa == [3, 2]
        assert prof.n_minus_nstar == 5

    def test_chain_profile(self, chain3):
        ls = lift_system(chain3)
        flag = derived_flag(ls.I0)
        prof = rho_indices(ls, flag)
        assert prof.rho == [1, 1, 1]
        assert prof.kappa == [3]

    def test_double_integrator_profile(self, double_integrator):
        ls = lift_system(double_integrator)
        flag = derived_flag(ls.I0)
        prof = rho_indices(ls, flag)
        assert prof.rho == [1]
        assert prof.kappa == [1]

    def test_sum_rho_under_con(self, sec5_lifted, sec5_flag):
        prof = rho_indices(sec5_lifted, sec5_flag)
        assert check_con(sec5_lifted, sec5_flag)
        assert sum(prof.rho) == prof.n_minus_nstar
        assert sum(prof.kappa) == prof.n_minus_nstar

    def test_monotone_dims(self, sec5_lifted, sec5_flag):
        ls = sec5_lifted
        dims = [intersection_dimension(
            ls, augment_with_dt(sec5_flag.entry(k)), ls.p0)
            for k in range(6)]
        assert all(a >= b for a, b in zip(dims, dims[1:]))


class TestCon:
    def test_worked_holds(self, sec5_lifted, sec5_flag):
        assert check_con(sec5_lifted, sec5_flag) is True

    def test_uncontrollable_lti_fails(self):
        # zero drift, single input hitting only x1, point target
        sys = build((2, 1), ["0", "0"], [["1", "0"]], ["x1", "x2"],
                    [0, 0], ["0"])
        ls = lift_system(sys)
        flag = derived_flag(ls.I0)
        assert check_con(ls, flag) is False

    def test_decided_from_one_intersection(self, sec5_lifted, sec5_flag,
                                           monkeypatch):
        # one batch, of one pair
        calls = spy_batches(monkeypatch)
        assert check_con(sec5_lifted, sec5_flag) is True
        assert calls == [1]

    def test_dt_row_on_both_sides(self, sec5_lifted, sec5_closures):
        # the intersection always holds the dt line, so dimension 1 means
        # the dt line only
        ls = sec5_lifted
        dt = np.zeros(ls.vars.total)
        dt[0] = 1.0
        assert np.array_equal(ann_tangent_L(ls, ls.p0)[0], dt)
        terminal = sec5_closures[ls.vars.n - ls.base.n_star]
        assert np.array_equal(_span_with_dt(terminal, ls.p0)[-1], dt)


class TestDim:
    def test_worked_holds(self, sec5_lifted, sec5_flag, sec5):
        samples = sample_on_N(sec5, 8, seed=0)
        assert check_dim(sec5_lifted, sec5_flag, samples) is True

    def test_rank_drop_detected(self):
        # x2' = x1 u1: the level-1 intersection gains a dimension exactly
        # where x1 = 0, which is the base point
        sys = build((2, 1), ["0", "0"], [["1", "x1"]], ["x2"], [0, 0], ["0"])
        ls = lift_system(sys)
        flag = derived_flag(ls.I0)
        samples = sample_on_N(sys, 8, seed=0)
        assert check_dim(ls, flag, samples) is False

    def test_needs_samples(self, sec5_lifted, sec5_flag):
        with pytest.raises(ValueError):
            check_dim(sec5_lifted, sec5_flag, [])


class TestInv:
    def test_worked_holds_with_single_nontrivial_level(
            self, sec5_lifted, sec5_flag, sec5):
        samples = sample_on_N(sec5, 8, seed=0)
        detail = {}
        assert check_inv(sec5_lifted, sec5_flag, samples,
                         detail=detail) is True
        assert detail[2] == "holds"
        for k in (0, 1, 3, 4, 5):
            assert detail[k] == "differential"

    def test_nonholonomic_counterexample(self):
        """Chained nonholonomic integrator: the level-1 intersection escapes
        the differential closure."""
        sys = build((4, 2),
                    ["0", "0", "0", "x3"],
                    [["1", "0", "-x2", "0"], ["0", "1", "x1", "0"]],
                    ["x2", "x3"], [1, 0, 0, 0], ["0", "0"])
        ls = lift_system(sys)
        flag = derived_flag(ls.I0)
        samples = sample_on_N(sys, 6, seed=0)
        detail = {}
        assert check_inv(ls, flag, samples, detail=detail) is False
        assert check_con(ls, flag) is True
        assert check_dim(ls, flag, samples) is True

    def test_decided_from_intersection_dimensions(self, monkeypatch):
        # the one non-differential level fails at p0, so the raw ideal and
        # its closure are intersected there and no sample is visited
        ls, flag, _, samples = nonholonomic()
        calls = spy_batches(monkeypatch)
        assert check_inv(ls, flag, samples) is False
        assert calls == [1, 1]

    def test_failing_level_meets_ann_in_fewer_closure_dimensions(self):
        ls, flag, closures, _ = nonholonomic()
        detail = {}
        check_inv(ls, flag, [], detail=detail)
        [k] = [k for k, v in detail.items() if v == "fails"]
        assert (intersection_dimension(ls, flag.augmented(k), ls.p0)
                > intersection_dimension(ls, closures[k], ls.p0))

    def test_one_annihilator_per_point(self, sec5_lifted, sec5_flag, sec5,
                                       monkeypatch):
        # level 2 holds at p0 and at all 8 samples: per point, one
        # Ann(T_pL) and one dimension each for the raw ideal and its closure
        samples = sample_on_N(sec5, 8, seed=0)
        anns = []
        ann = conditions.ann_tangent_L
        monkeypatch.setattr(conditions, "ann_tangent_L",
                            lambda *a: anns.append(1) or ann(*a))
        dims = spy_batches(monkeypatch)
        assert check_inv(sec5_lifted, sec5_flag, samples) is True
        assert (len(anns), sum(dims)) == (9, 18)


class TestDistinctPoints:
    """Each distinct sample point is decided once; p0 keeps its own row."""

    @staticmethod
    def count_anns(monkeypatch):
        anns = []
        ann = conditions.ann_tangent_L
        monkeypatch.setattr(conditions, "ann_tangent_L",
                            lambda *a: anns.append(1) or ann(*a))
        return anns

    def test_point_target_table(self, chain3, monkeypatch):
        # N = {x0}: every sample is the point the bindings define
        ls = lift_system(chain3)
        flag = derived_flag(ls.I0)
        samples = sample_on_N(chain3, 8, seed=0)
        anns = self.count_anns(monkeypatch)
        table = dim_table(ls, flag, samples)
        assert len(anns) == 2
        assert len(table) == 9
        assert all(table[f"sample{i}"] == table["p0"] for i in range(8))
        assert all(table[f"sample{i}"] is not table["sample0"]
                   for i in range(1, 8))

    def test_distinct_samples_each_decided(self, sec5_lifted, sec5_flag,
                                           sec5, monkeypatch):
        samples = sample_on_N(sec5, 8, seed=0)
        anns = self.count_anns(monkeypatch)
        table = dim_table(sec5_lifted, sec5_flag, samples)
        assert len(anns) == 9
        assert len(table) == 9

    def test_inv_visits_each_distinct_point_once(
            self, sec5_lifted, sec5_flag, sec5, monkeypatch):
        # level 2 holds throughout, so every distinct point is visited
        samples = sample_on_N(sec5, 4, seed=0)
        anns = self.count_anns(monkeypatch)
        assert check_inv(sec5_lifted, sec5_flag,
                         samples + samples[::-1]) is True
        assert len(anns) == 5


class TestEvaluateConditions:
    def test_worked_report(self, sec5_lifted, sec5_flag):
        rep = evaluate_conditions(sec5_lifted, sec5_flag, n_samples=8, seed=0)
        assert rep.con and rep.inv and rep.dim and rep.all_hold
        assert rep.indices.rho == [2, 2, 1, 0]
        assert rep.indices.kappa == [3, 2]
        assert len(rep.samples_used) == 8
        assert rep.dim_table["p0"] == [6, 4, 2, 1, 1, 1]

    def test_failing_report_flags_advisory_indices(self):
        sys = build((4, 2),
                    ["0", "0", "0", "x3"],
                    [["1", "0", "-x2", "0"], ["0", "1", "x1", "0"]],
                    ["x2", "x3"], [1, 0, 0, 0], ["0", "0"])
        ls = lift_system(sys)
        flag = derived_flag(ls.I0)
        rep = evaluate_conditions(ls, flag, n_samples=6, seed=0)
        assert not rep.inv
        assert not rep.all_hold
        assert any("advisory" in w for w in rep.warnings)

    def test_unicycle_report(self):
        # kernels in f and N, and eight distinct Newton samples (N's
        # second defining function has no linear state to solve for)
        sys = build((4, 2), ["x4*cos(x3)", "x4*sin(x3)", "0", "0"],
                    [["0", "0", "0", "1"], ["0", "0", "1", "0"]],
                    ["x1^2 + x2^2 - 1", "x1*cos(x3) + x2*sin(x3)"],
                    [0, 1, 0, 1], ["0", "-x4"])
        ls = lift_system(sys)
        rep = evaluate_conditions(ls, derived_flag(ls.I0), n_samples=8,
                                  seed=0)
        assert (rep.con, rep.inv, rep.dim) == (True, True, True)
        assert len({p.values for p in rep.samples_used}) == 8
        assert rep.dim_table == {"p0": [3, 2, 1],
                                 **{f"sample{i}": [3, 2, 1]
                                    for i in range(8)}}
        assert rep.inv_detail == {0: "differential", 1: "differential",
                                  2: "differential"}
        assert (rep.indices.rho, rep.indices.kappa,
                rep.indices.n_minus_nstar) == ([1, 1], [2], 2)
        assert rep.warnings == []

    def test_nonholonomic_report(self):
        ls, flag, _, _ = nonholonomic()
        rep = evaluate_conditions(ls, flag, n_samples=6, seed=0)
        assert (rep.con, rep.inv, rep.dim) == (True, False, True)
        assert len({p.values for p in rep.samples_used}) == 6
        assert rep.dim_table == {"p0": [3, 2, 1],
                                 **{f"sample{i}": [3, 2, 1]
                                    for i in range(6)}}
        assert rep.inv_detail == {0: "differential", 1: "fails",
                                  2: "differential"}
        assert (rep.indices.rho, rep.indices.kappa,
                rep.indices.n_minus_nstar) == ([1, 1], [2], 2)
        assert rep.warnings == [
            "involutivity fails: indices computed from the raw ideals are "
            "advisory only"]


class TestOneTablePerRun:
    """A run builds Ann(T_pL) once per distinct point and decides each
    (ideal, point) intersection dimension once, for all three conditions
    and the indices together, in one batch per point."""

    @staticmethod
    def spy(monkeypatch):
        return (TestDistinctPoints.count_anns(monkeypatch),
                spy_batches(monkeypatch))

    def test_worked_run(self, sec5_lifted, sec5_flag, monkeypatch):
        # p0 and 8 distinct samples; at each, the 4 distinct flag entries
        # and the closure of the one level that is not closed
        anns, batches = self.spy(monkeypatch)
        rep = evaluate_conditions(sec5_lifted, sec5_flag, n_samples=8,
                                  seed=0)
        assert rep.all_hold
        assert len(anns) == 9
        assert batches == [5] * 9

    def test_one_svd_per_distinct_point(self, sec5_lifted, sec5_flag,
                                        monkeypatch):
        # from the table's construction on, the SVDs are the 9 batched
        # ones, one per point with Ann's rank among its ranks, and reading
        # the conditions off the table takes none
        events = []
        init, svd = conditions._PointTable.__init__, np.linalg.svd

        def marked_init(table, *a):
            events.append("table")
            init(table, *a)
        monkeypatch.setattr(conditions._PointTable, "__init__", marked_init)
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k:
                            events.append(np.ndim(a)) or svd(a, *r, **k))
        rep = evaluate_conditions(sec5_lifted, sec5_flag, n_samples=8,
                                  seed=0)
        assert rep.all_hold
        assert events[events.index("table"):] == ["table"] + [3] * 9

    def test_point_target_run(self, chain3, monkeypatch):
        # every sample is x0: one point besides p0
        ls = lift_system(chain3)
        flag = derived_flag(ls.I0)
        anns, batches = self.spy(monkeypatch)
        rep = evaluate_conditions(ls, flag, n_samples=8, seed=0)
        assert rep.all_hold
        assert len(anns) == 2
        assert len(batches) == 2


def test_ann_rank_checked_from_the_batch(monkeypatch):
    # N = {x2 (x1 + 1) = 0} is singular at (-1, 0), a point of N and so of
    # L; the batch that decides the point reads Ann's rank drop, in its one
    # SVD call
    sys = build((2, 1), ["0", "0"], [["1", "0"]], ["x1*x2 + x2"], [0, 0],
                ["0"])
    ls = lift_system(sys)
    batches = spy_batches(monkeypatch)
    with pytest.raises(RankDeficientN) as err:
        intersection_dimension(ls, ls.I0, ls.p0.replace(x1=-1))
    assert str(err.value) == "Ann(T_pL) rows drop rank at the point"
    assert batches == [1]


class TestExactRankOracle:
    """Every dimension of a run's table, at p0 and at each exact sample,
    is ra + rb − rab with the three ranks taken over Q on the rows
    evaluated exactly: no rank decision is flipped by the float SVD, by
    padding or by batching."""

    @staticmethod
    def run_table(ls, monkeypatch):
        tables = []

        class Recorded(conditions._PointTable):
            def __init__(self, *a):
                super().__init__(*a)
                tables.append(self)
        monkeypatch.setattr(conditions, "_PointTable", Recorded)
        rep = evaluate_conditions(ls, derived_flag(ls.I0), n_samples=8,
                                  seed=0)
        assert rep.all_hold
        [table] = tables
        return table

    @staticmethod
    def exact_rows(forms, p, skip_dt):
        return [{i: c.eval(p) for (i,), c in w.terms.items()
                 if i or not skip_dt} for w in forms]

    def check(self, table):
        ls = table.ls
        for (ideal, i), d in table._dims.items():
            p = table.points[i]
            assert all(isinstance(v, Fraction) for v in p.values)
            ann = self.exact_rows(ls.L_diffs, p, False)
            span = (self.exact_rows(ideal.generators, p, True)
                    + [{0: Fraction(1)}])
            assert d == (numlin.exact_rank(ann) + numlin.exact_rank(span)
                         - numlin.exact_rank(ann + span))
        return len(table.points), len(table._dims)

    def test_sec5(self, sec5_lifted, monkeypatch):
        # p0 and 8 exact samples, each with the 4 distinct flag entries
        # and the one closure that is not its entry
        table = self.run_table(sec5_lifted, monkeypatch)
        assert self.check(table) == (9, 45)

    @pytest.mark.parametrize("make, pairs", [(make_chain3, 8),
                                             (make_chain8, 18)])
    def test_chains(self, make, pairs, monkeypatch):
        # point targets: p0 and the one point every sample is, each with
        # every flag entry, all levels closed
        table = self.run_table(lift_system(make()), monkeypatch)
        assert self.check(table) == (2, pairs)
