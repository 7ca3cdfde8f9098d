"""A derived step whose nullspace keeps some of its parent's generators,
where no kept row would need rescaling, builds I' from the parent's own
echelon rows (`pfaffian._kept_rows`), against the general route: an
echelon of the kept generators, d of each new generator and a fresh
complement substitution.  Kept rows that would need rescaling take the
general route.  Stdlib only, so these run with sympy blocked as well."""

import copy
from collections import Counter

import numpy as np
import pytest

import tflkit.integrate as integrate
import tflkit.numlin as numlin
import tflkit.pfaffian as pfaffian
from tflkit.errors import RegularityViolation, TflError
from tflkit.expr import VariableSpace, parse_expr
from tflkit.forms import KForm, coordinate_form, exterior_derivative
from tflkit.lift import lift_system
from tflkit.pfaffian import PfaffianIdeal, rref_function_field
from tflkit.problem import cmd_solve, dumps_report, load_problem, loads_problem
from _exprs import point_from_map
from check_chain_digests import chain_text
from test_pfaffian import PROBLEMS, _flags_of, sec5_edit_system, sec5_edits
from test_problem_cli import UNICYCLE

# the chain workload's chain8 at seeds 11 and 12 of bench/run.py
CHAIN8 = {"chain8 seed 11": [1, 2, 1, 1, 2, 2, -2],
          "chain8 seed 12": [1, -1, 3, 2, 3, -1, -2]}


def _systems():
    """(name, maker of the control system) for the fixtures, the two
    chain8 problems, the unicycle and the 112 single-entry edits of sec5."""
    out = [(path.stem, lambda path=path: load_problem(path)
            .to_control_system()) for path in sorted(PROBLEMS.glob("*.tfl"))]
    out += [(name, lambda coeffs=coeffs: loads_problem(chain_text(coeffs))
             .to_control_system()) for name, coeffs in CHAIN8.items()]
    out += [("unicycle",
             lambda: loads_problem(UNICYCLE).to_control_system())]
    out += [(f"{field}[{i}] = {text}",
             lambda edit=(field, i, text): sec5_edit_system(*edit))
            for field, i, text in sec5_edits()]
    return out


def _no_rref(rows, p0):
    raise AssertionError("the kept-rows route called rref_function_field")


@pytest.fixture(scope="module")
def routed():
    """Every derived step over the flags of `_systems()` and of each
    <I^(k), dt> that takes the kept-rows route, as (name, parent ideal,
    nullspace basis, I'), with rref_function_field failing inside the
    route; and the number of steps that reached it and fell back."""
    steps, fallbacks = [], [0]
    real = pfaffian._kept_rows
    name = [None]

    def record(ideal, basis):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(pfaffian, "rref_function_field", _no_rref)
            out = real(ideal, basis)
        if out is None:
            fallbacks[0] += 1
        else:
            steps.append((name[0], ideal, basis, out))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pfaffian, "_kept_rows", record)
        for name[0], make in _systems():
            try:
                _flags_of(lift_system(make()).I0)
            except TflError:
                continue
    return steps, fallbacks[0]


def _kept_generators(ideal, basis):
    """The generators the general route builds: sum lambda_i w_i."""
    out = []
    for vec in basis:
        g = KForm.zero(ideal.vars, 1)
        for lam, gen in zip(vec, ideal.generators):
            if not lam.is_structural_zero():
                g = g + gen.scale(lam)
        out.append(g)
    return out


def _forms_equal(a, b):
    return a.degree == b.degree and a.terms == b.terms


def _hand_built_ideal():
    """The ideal of `test_pivot_entries_that_are_not_rational`."""
    vs = VariableSpace.canonical(5, 1)

    def form(coeffs):
        return sum((coordinate_form(vs, nm).scale(parse_expr(c, vs))
                    for nm, c in coeffs.items()), KForm.zero(vs, 1))

    p0 = point_from_map(vs, {nm: 0 for nm in vs.names})
    return PfaffianIdeal([form({"x1": "-2 - 2*x2", "x3": "2*x3"}),
                          form({"x1": "x2", "x2": "1 + x1"}),
                          form({"t": "-x5", "x4": "1"})], p0)


class TestKeptRows:
    def test_rows_and_pivots(self, routed):
        steps, fallbacks = routed
        # each step that keeps generators as they stand takes the route;
        # every other step that builds generators, the 3 sec5 edits whose
        # kept rows would need rescaling among them, takes a combination
        # of them
        assert len(steps) == 133 and fallbacks == 192
        names = Counter(name for name, _, _, _ in steps)
        # every chain8 step that builds generators, and sec5's step on
        # <I^(2), dt>
        assert names["chain8 seed 11"] == names["chain8 seed 12"] == 7
        assert names["paper-sec5"] == names["unicycle"] == 1
        for name, ideal, basis, out in steps:
            gens = _kept_generators(ideal, basis)
            assert out.rows() == rref_function_field(
                [[g.coefficient((i,)) for i in range(ideal.vars.total)]
                 for g in gens], ideal.p0), name
            assert out.provenance == "derived-from"

    def test_substitutions(self, routed):
        steps, _ = routed
        inherited = 0
        for name, _, _, out in steps:
            if out._subs is None:
                continue
            inherited += 1
            fresh = copy.copy(out)
            fresh._subs = None
            want = pfaffian._complement_substitution(fresh)
            assert out._subs.keys() == want.keys(), name
            for pc, (form, den) in out._subs.items():
                assert _forms_equal(form, want[pc][0]), name
                assert den == want[pc][1], name
        # every kept pivot entry on the sweep is rational and every kept
        # row a first-pass row
        assert inherited == len(steps)

    def test_differentials(self, routed):
        steps, _ = routed
        for name, ideal, _, out in steps:
            assert len(out._d) == len(out.generators)
            for g, dg in zip(out.generators, out._d):
                assert _forms_equal(dg, exterior_derivative(g)), name
                # each row stands as it was, so its d is its parent's
                assert any(dg is d for d in ideal._d), name

    def test_chain8_solve(self, monkeypatch):
        """A chain8 solve echelonizes no derived-from entry and builds d
        once per generator of the system ideal, which every derived entry
        inherits; its report is unchanged."""
        text = chain_text(CHAIN8["chain8 seed 11"])
        building, rref_for, d_for = [], [], Counter()
        init, rref = PfaffianIdeal.__init__, pfaffian.rref_function_field
        differentials = pfaffian._differentials

        def init_spy(self, generators, p0, provenance="system",
                     _validate_raw=True):
            building.append(provenance)
            try:
                init(self, generators, p0, provenance, _validate_raw)
            finally:
                building.pop()

        def rref_spy(rows, p0):
            rref_for.append(building[-1] if building else None)
            return rref(rows, p0)

        def differentials_spy(ideal):
            if ideal._d is None:
                d_for[ideal.provenance] += len(ideal)
            return differentials(ideal)

        _, tree, code = cmd_solve(loads_problem(text))
        report = dumps_report(tree)
        monkeypatch.setattr(PfaffianIdeal, "__init__", init_spy)
        monkeypatch.setattr(pfaffian, "rref_function_field", rref_spy)
        for module in (pfaffian, integrate):
            monkeypatch.setattr(module, "_differentials", differentials_spy)
        _, tree, code_spied = cmd_solve(loads_problem(text))
        assert (dumps_report(tree), code_spied) == (report, code)
        assert code == 0
        assert "derived-from" not in rref_for
        assert rref_for.count("system") == 1
        # the system ideal's 8 generators, then the integrated closure's 2
        # (dt and I(7)), which no derived step built
        assert d_for == {"system": 8, "closure-of I(7)+dt": 2}

    def test_pivot_entries_that_are_not_rational(self, monkeypatch):
        """Over (t, u1, x1..x5) at p0 = 0, I = <alpha, beta, gamma> with
        alpha = -2(1 + x2) dx1 + 2 x3 dx3, beta = x2 dx1 + (1 + x1) dx2 and
        gamma = dx4 - x5 dt: <alpha, beta> is differential and d(gamma) is
        not in I, so I' keeps the first two echelon rows.  The second would
        need rescaling by the signed content -2 of the first's pivot entry,
        so the step takes the general route, which echelonizes the kept
        generators, rescales no kept row (`_stacked`) and builds their d
        and substitution afresh."""
        ideal = _hand_built_ideal()
        p0 = ideal.p0
        routed, stacked = [], []
        real, real_stacked = pfaffian._kept_rows, pfaffian._stacked

        def spy(parent, basis):
            routed.append(real(parent, basis))
            return routed[-1]

        def stacked_spy(rows, pivots, factors):
            stacked.append(pivots)
            return real_stacked(rows, pivots, factors)

        monkeypatch.setattr(pfaffian, "_kept_rows", spy)
        monkeypatch.setattr(pfaffian, "_stacked", stacked_spy)
        out = pfaffian.derived_system(ideal)
        assert routed == [None] and stacked == []
        rows, pivots = out.rows()
        assert pivots == [2, 3]
        assert [str(row[pc]) for row, pc in zip(rows, pivots)] == [
            "-2*x2 - 2", "4*x1*x2 + 4*x1 + 4*x2 + 4"]
        assert out.rows() == rref_function_field(
            pfaffian._forms_to_rows(ideal.generators[:2]), p0)
        assert out._d is None and out._subs is None
        d = pfaffian._differentials(out)
        assert all(dg is not parent for dg in d for parent in ideal._d)
        for g, dg in zip(out.generators, d):
            assert _forms_equal(dg, exterior_derivative(g))
        assert pfaffian.derived_system(out).rows()[0] is rows


def _kept_indices(basis):
    """The parent row that each nullspace vector keeps."""
    return [next(i for i, lam in enumerate(vec) if not lam.is_structural_zero())
            for vec in basis]


def _chain8_system():
    return loads_problem(chain_text(CHAIN8["chain8 seed 11"])) \
        .to_control_system()


class TestRowsAsTheyStand:
    """Every kept-rows step has signed content 1 at each kept pivot entry
    before the last, so every scale of `_stacked` is 1, and I' takes the
    parent's normalized rows with their forms, d and values at p0 as they
    stand; the p0 rank check still runs on those values."""

    def test_against_stacked(self, routed):
        steps, _ = routed
        standing = 0
        for name, ideal, basis, out in steps:
            rows, pivots = ideal.rows()
            kept = _kept_indices(basis)
            want = pfaffian._stacked([rows[i] for i in kept],
                                     [pivots[i] for i in kept], ())
            assert out.rows() == want, name
            forms = pfaffian._rows_to_forms(want[0], ideal.vars)
            assert len(out.generators) == len(forms), name
            assert all(_forms_equal(g, f)
                       for g, f in zip(out.generators, forms)), name
            assert [list(v) for v in out._at_p0] == [
                list(f.at(ideal.p0)) for f in forms], name
            standing += all(any(g is h for h in ideal.generators)
                            for g in out.generators)
        # rows that would need rescaling take the general route
        assert standing == len(steps) == 133

    def test_chain8_solve_counts(self, monkeypatch):
        """A chain8 solve: the kept-rows route normalizes no row and
        evaluates no form, and ranks the kept rows at p0 once per step."""
        inside, counts = [False], Counter()
        real = pfaffian._kept_rows

        def kept_spy(ideal, basis):
            inside[0] = True
            try:
                out = real(ideal, basis)
            finally:
                inside[0] = False
            counts["kept"] += out is not None
            return out

        def counting(name, f):
            def spy(*args):
                counts[name] += inside[0]
                return f(*args)
            return spy

        monkeypatch.setattr(pfaffian, "_kept_rows", kept_spy)
        monkeypatch.setattr(pfaffian, "_normalize_row",
                            counting("normalize", pfaffian._normalize_row))
        monkeypatch.setattr(KForm, "at", counting("at", KForm.at))
        monkeypatch.setattr(numlin, "rank", counting("rank", numlin.rank))
        _, _, code = cmd_solve(loads_problem(chain_text(
            CHAIN8["chain8 seed 11"])))
        assert code == 0
        assert +counts == {"kept": 7, "rank": 7}

    def test_p0_check_reads_the_parent_values(self):
        """The kept rows' rank check runs on the parent's values at p0:
        with those made dependent, the step raises."""
        system = lift_system(_chain8_system()).I0
        parent = copy.copy(system)
        parent._at_p0 = [np.zeros_like(v) for v in system._at_p0]
        with pytest.raises(RegularityViolation) as info:
            pfaffian.derived_system(parent)
        assert str(info.value) == ("generators are pointwise dependent at "
                                   "the base point")
        # unchanged, the same step passes it
        assert len(pfaffian.derived_system(system)) == 7

    def test_pivot_entries_that_are_not_rational_take_stacked(
            self, monkeypatch):
        """The kept rows of the hand-built ideal: I' takes the general
        route, and its echelon is the one `_stacked` makes of the parent's
        rows, the second scaled by -2; <I, dt> takes `_stacked` once, on
        every row of I."""
        ideal = _hand_built_ideal()
        rows, pivots = ideal.rows()
        stacked = []
        real = pfaffian._stacked

        def spy(rows, pivots, factors):
            stacked.append(list(pivots))
            return real(rows, pivots, factors)

        monkeypatch.setattr(pfaffian, "_stacked", spy)
        out = pfaffian.derived_system(ideal)
        assert stacked == []
        assert real(rows[:2], pivots[:2], ()) == out.rows()
        assert out.rows()[0][1] != rows[1]
        aug = pfaffian.augment_with_dt(ideal)
        assert stacked == [[2, 3, 5]] and aug.rows()[1] == [0, 2, 3, 5]
