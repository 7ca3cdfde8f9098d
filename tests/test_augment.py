"""<I, dt> built from I's own echelon, and the fraction-free Jordan
completion of `rref_function_field`, against the eliminations they replace.
Stdlib only, so these run with sympy blocked as well."""

import math
import random

import pytest

import tflkit.pfaffian as pfaffian
from tflkit.errors import TflError
from tflkit.expr import Expr, VariableSpace, parse_expr
from tflkit.forms import coordinate_form
from tflkit.lift import lift_system
from tflkit.pfaffian import (PfaffianIdeal, augment_with_dt, derived_flag,
                             rref_function_field)
from tflkit.problem import load_problem, loads_problem
from conftest import make_chain8, random_point, random_polynomial
from _exprs import point_from_map
from _fraction_jordan import fraction_rref
from test_pfaffian import PROBLEMS, sec5_edit_system, sec5_edits
from test_problem_cli import UNICYCLE


def _full_elimination(ideal):
    """The echelon of I's generators and dt, eliminated from scratch."""
    dt = coordinate_form(ideal.vars, 0)
    return rref_function_field(
        [[g.coefficient((i,)) for i in range(ideal.vars.total)]
         for g in ideal.generators + [dt]], ideal.p0)


def _augment_without_elimination(ideal, monkeypatch):
    def no_rref(rows, p0):
        raise AssertionError("augmenting called rref_function_field")

    with monkeypatch.context() as m:
        m.setattr(pfaffian, "rref_function_field", no_rref)
        return augment_with_dt(ideal)


def _systems():
    """(name, maker of the control system) for the fixtures, chain8, the
    unicycle and the 112 single-entry edits of sec5."""
    out = [(path.stem, lambda path=path: load_problem(path)
            .to_control_system()) for path in sorted(PROBLEMS.glob("*.tfl"))]
    out += [("chain8", make_chain8),
            ("unicycle",
             lambda: loads_problem(UNICYCLE).to_control_system())]
    out += [(f"{field}[{i}] = {text}",
             lambda edit=(field, i, text): sec5_edit_system(*edit))
            for field, i, text in sec5_edits()]
    return out


@pytest.fixture(scope="module")
def sweep():
    """Every flag entry of `_systems()` whose flag builds, with every
    (input rows, p0, echelon) that `rref_function_field` built for the
    flags and for the full eliminations of each <I^(k), dt>."""
    echelons = []
    real = pfaffian.rref_function_field

    def record(rows, p0):
        out = real(rows, p0)
        echelons.append((rows, p0, out))
        return out

    entries = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pfaffian, "rref_function_field", record)
        for name, make in _systems():
            try:
                flag = derived_flag(lift_system(make()).I0)
            except TflError:
                continue
            for k, entry in enumerate(flag.entries):
                entries.append((f"{name} I({k})", entry,
                                _full_elimination(entry)))
    return entries, echelons


class TestAugmentFromTheEchelon:
    """augment_with_dt gives the rows and pivots of the full elimination of
    I's generators and dt, exactly, contents and signs included, without
    eliminating."""

    def test_sweep(self, sweep, monkeypatch):
        entries, _ = sweep
        assert len(entries) == 344
        owners = 0
        for name, entry, full in entries:
            aug = _augment_without_elimination(entry, monkeypatch)
            assert aug.rows() == full, name
            owners += 0 in entry.rows()[1]
        # t is a pivot of most entries, so their owner row takes a new one
        assert owners == 245

    def test_first_integral_edits(self, sweep, monkeypatch):
        # g2[4] = 0 and g2[4] = 1: the level-2 rows whose contents the
        # fraction-based completion cleared by 1/2 and 1/16
        entries, _ = sweep
        for edit in ("g2[4] = 0", "g2[4] = 1"):
            chosen = [(e, full) for name, e, full in entries
                      if name.startswith(edit + " ")]
            assert len(chosen) == 4
            for entry, full in chosen:
                assert _augment_without_elimination(
                    entry, monkeypatch).rows() == full

    VS5 = VariableSpace.canonical(5, 1)   # columns t, u1, x1 .. x5
    F = "x1*x5 + x4^2 + 2"

    def _ideal(self, *forms):
        vs = self.VS5
        gens = []
        for form in forms:
            w = None
            for name, coeff in form.items():
                term = coordinate_form(vs, name).scale(
                    parse_expr(coeff.replace("f", f"({self.F})"), vs))
                w = term if w is None else w + term
            gens.append(w)
        vals = {nm: 0 for nm in vs.names}
        vals["x1"] = 1
        return PfaffianIdeal(gens, point_from_map(vs, vals))

    # name -> (generators as {coordinate: coefficient}, pivots of I, pivots
    # of <I, dt>); f = x1*x5 + x4^2 + 2 is 3 at p0 (x1 = 1, the rest 0)
    CASES = {
        # t is no pivot: its entry x2 vanishes at p0; the pivot entries
        # -2, -2f, 2f and 2*x1*f carry the factor 2 of the first
        "t no pivot": ([{"t": "x2", "u1": "-2"},
                        {"x1": "f", "x4": "x5"},
                        {"x2": "-f", "x4": "x1 + 1"},
                        {"x3": "x1*f", "x5": "x4 - 3"}],
                       [1, 2, 3, 4], [0, 1, 2, 3, 4]),
        # the owner of t moves to x1, before the other pivots; the row of
        # x3 holds x1 with x2, which vanishes at p0
        "new pivot first": ([{"t": "-f", "u1": "x2", "x1": "2*f"},
                             {"x3": "-3*f", "x1": "x2*x5"},
                             {"x4": "x1", "x5": "u1"}],
                            [0, 4, 5], [0, 2, 4, 5]),
        # to x3, between x1 and x4: the row of x1 holds x3 at p0, the row
        # of x4 holds it where x2 vanishes
        "new pivot between": ([{"t": "2", "u1": "x2", "x3": "-f"},
                               {"x1": "-2*f", "x3": "x1 + x4"},
                               {"x4": "f", "x3": "x2*x1", "x5": "3"}],
                              [0, 2, 5], [0, 2, 4, 5]),
        # to x5, after x1 and x2, which both hold it
        "new pivot last": ([{"t": "-x1", "x5": "2*f", "x4": "x2"},
                            {"x1": "f", "x5": "-2"},
                            {"x2": "-4*f", "x5": "x1*x4 + 1"}],
                           [0, 2, 3], [0, 2, 3, 6]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_hand_built(self, case, monkeypatch):
        forms, pivots, aug_pivots = self.CASES[case]
        ideal = self._ideal(*forms)
        assert ideal.rows()[1] == pivots
        aug = _augment_without_elimination(ideal, monkeypatch)
        assert aug.rows()[1] == aug_pivots
        assert aug.rows() == _full_elimination(ideal)
        assert aug.provenance == "system+dt"

    def test_negative_lead_pivots_and_contents(self, monkeypatch):
        forms, _, _ = self.CASES["t no pivot"]
        rows, pivots = _augment_without_elimination(
            self._ideal(*forms), monkeypatch).rows()
        # dt, then du1 made monic; each later row of I keeps its content 2
        # and takes the signed contents of the pivot entries -2, -2f and 2f
        # before it, as the Bareiss factors of the full elimination give
        assert [str(row[pc]) for row, pc in zip(rows, pivots)] == [
            "1", "1", "4*x1*x5 + 4*x4^2 + 8", "8*x1*x5 + 8*x4^2 + 16",
            "16*x1^2*x5 + 16*x1*x4^2 + 32*x1"]


def _integer_coefficients(row):
    return all(c.denominator == 1 for e in row if not e.is_structural_zero()
               for c, _ in e.terms())


def _multiple(new_row, old_row):
    """k with new_row = k * old_row for a rational k, else None."""
    lead = next(i for i, e in enumerate(old_row)
                if not e.is_structural_zero())
    k = (new_row[lead] / old_row[lead]).as_rational()
    if k is None:
        return None
    unit = Expr.rational(old_row[lead].vars, k)
    return k if all(a == b * unit for a, b in zip(new_row, old_row)) else None


def _compare_completions(rows, p0, new):
    """The fraction-free echelon against the fraction-based one: the same
    pivots, and each row a positive integer multiple of the old row (the
    old completion cleared its fractions with the leading coefficients of
    their denominators, which can leave a row short by an integer).  The
    rows that differ, as (old row, new row) pairs."""
    old = fraction_rref(rows, p0)
    assert new[1] == old[1]
    differ = []
    for a, b in zip(new[0], old[0]):
        if a != b:
            k = _multiple(a, b)
            assert k is not None and k > 1 and k.denominator == 1
            differ.append((b, a))
    return differ


class TestFractionFreeCompletion:
    """rref_function_field completes the p0-regular rows with
    q*row - row[pc]*r instead of row - (row[pc]/q)*r, against the old
    completion in tests/_fraction_jordan.py."""

    def test_sweep_echelons(self, sweep):
        _, echelons = sweep
        assert len(echelons) > 400
        differ = []
        for rows, p0, new in echelons:
            differ += _compare_completions(rows, p0, new)
        # the rows the old completion left with integer coefficients are
        # unchanged; the others lost an integer to its denominator clearing
        assert not any(_integer_coefficients(old) for old, _ in differ)
        assert all(_integer_coefficients(new) for _, new in differ)

    @pytest.mark.parametrize("integral", [True, False])
    def test_seeded_matrices(self, integral):
        vs = VariableSpace.canonical(3, 1)
        equal = rows_total = 0
        for seed in range(100):
            rng = random.Random(seed)
            n = rng.randint(2, 4)
            m = rng.randint(n, 5)

            def entry():
                e = random_polynomial(rng, vs, degree=2, terms=2)
                if integral:
                    den = math.lcm(*(c.denominator for c, _ in e.terms()))
                    e = e * Expr.rational(vs, den)
                return e

            rows = [[entry() if rng.random() < 0.6 else Expr.zero(vs)
                     for _ in range(m)] for _ in range(n)]
            p0 = random_point(rng, vs)
            new = rref_function_field(rows, p0)
            rows_total += len(new[0])
            equal += len(new[0]) - len(_compare_completions(rows, p0, new))
        assert equal > rows_total // 2


class TestKnownFactorsOfTheOwnerRow:
    def test_sec5_level_two(self, monkeypatch, sec5_flag):
        """On sec5's I^(2), whose owner row moves from t to x1*(x3 + 3),
        the rows eliminated against the owner's row share its old t entry,
        and one also its new pivot entry.  Divided by both first, the row
        gcds of augmenting make 2 cofactor calls instead of 6, and give the
        same rows."""
        import tflkit.expr as expr

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
        entry = sec5_flag.entry(2)
        assert str(entry.rows()[0][0][4]) == "x1*x3 + 3*x1"
        rows = augment_with_dt(entry).rows()
        assert calls[0] == 2
        calls[0] = 0
        monkeypatch.setattr(pfaffian, "divide_by_factors",
                            lambda row, factors: row)
        assert augment_with_dt(entry).rows() == rows
        assert calls[0] == 6
