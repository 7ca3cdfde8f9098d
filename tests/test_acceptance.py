"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
happen; without -s pytest shows them for failing criteria only.
"""

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import tflkit.numlin as numlin
from tflkit.expr import Expr, Point, VariableSpace, Zeroness, parse_expr
from tflkit.forms import coordinate_form, d_of_function, exterior_derivative
from tflkit.lift import ControlSystem, lift_system
from tflkit.pfaffian import (Membership, PfaffianIdeal, augment_with_dt,
                             derived_flag, ideal_membership)
from tflkit.conditions import sample_on_N
from tflkit.integrate import adapt_to_L, frobenius_integrate
from tflkit.algorithm import (RelativeDegree, run_tfl, vector_relative_degree)
from tflkit.problem import cmd_solve, dumps_report, load_problem

from conftest import (make_sec5_system, random_one_form, random_vector_field)
from _lti import random_lti_instance, rank_test_oracle
from _brackets import s_module, u_module
from _pointwise import ideal_at
from _checks import check_con, check_dim, check_inv

ROOT = Path(__file__).resolve().parent.parent
SEC5_FILE = ROOT / "problems" / "paper-sec5.tfl"


def report(number, description, ok):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {verdict}: {description}")
    return ok


class TestCriterion1:
    def test_flag_reproduction(self, sec5):
        """Derived-flag generator counts (7, 5, 3, 0) with matching ranks,
        under 60 s.

        The source table reads (7, 5, 2, 0); its third entry is
        inconsistent with the printed system (see the comment below)."""
        t0 = time.monotonic()
        ls = lift_system(sec5)
        flag = derived_flag(ls.I0)
        elapsed = time.monotonic() - t0
        counts = flag.generator_counts()
        ranks = tuple(int(numlin.rank(ideal_at(e, ls.p0))) for e in flag.entries)
        ok = (counts == (7, 5, 3, 0)) and (ranks == counts) \
            and (elapsed < 60.0)
        report(1, f"flag counts {counts}, ranks {ranks}, {elapsed:.1f}s "
                  "(expected (7, 5, 3, 0); the source table's (7, 5, 2, 0) "
                  "is impossible here, since [g1, g2] = 0 leaves D^(2) at "
                  "most 7 of 10 directions)", ok)
        assert ranks == counts
        assert elapsed < 60.0
        # The source table reads (7, 5, 2, 0), which this very system
        # cannot have.  M = R x R^2 x R^7 has dimension 10 and
        # D^(1) = span{Y, d/du1, d/du2, g1, g2}.  The only new directions
        # in D^(2) = D^(1) + [D^(1), D^(1)] are
        # [Y, g_i] = ad_f g_i + sum_j u_j [g_j, g_i] and [g1, g2]:
        # [d/du_i, g_j] = 0, and [d/du_i, Y] = g_i is already in D^(1).
        # For the printed fields [g1, g2] = 0, because g1 = (0, 0, x3, 1,
        # 0, 0, 0) acts only on x3 and x4, g2 depends on neither, and g2
        # has no x3 component.  So D^(2) has at most 7 directions and
        # I^(2) = Ann(D^(2)) at least 3 generators.  g1, g2, ad_f g1 and
        # ad_f g2 are independent at p0, so the count is exactly 3
        # (tests/test_pfaffian.py checks this with an independent sympy
        # computation).
        assert counts == (7, 5, 3, 0)


class TestCriterion2:
    def test_indices(self, sec5_lifted, sec5_flag):
        from _checks import rho_indices
        prof = rho_indices(sec5_lifted, sec5_flag)
        ok = prof.rho == [2, 2, 1, 0] and prof.kappa == [3, 2]
        report(2, f"rho {tuple(prof.rho)}, kappa {tuple(prof.kappa)}", ok)
        assert prof.rho == [2, 2, 1, 0]
        assert prof.kappa == [3, 2]


class TestCriterion3:
    def test_conditions_and_k2_closure(self, sec5, sec5_lifted, sec5_flag,
                                       sec5_closures):
        samples = sample_on_N(sec5, 8, seed=0)
        con = check_con(sec5_lifted, sec5_flag)
        inv = check_inv(sec5_lifted, sec5_flag, samples)
        dim = check_dim(sec5_lifted, sec5_flag, samples)
        cl2 = sec5_closures[2]
        p0 = sec5_lifted.p0
        target = np.array([(coordinate_form(sec5.vars, "x5")
                            + coordinate_form(sec5.vars, "x7")).at(p0),
                           coordinate_form(sec5.vars, "t").at(p0)])
        got = ideal_at(cl2, p0)
        closure_ok = (len(cl2) == 2 and numlin.rank(got) == 2
                      and numlin.rank(np.vstack([got, target])) == 2)
        ok = con and inv and dim and closure_ok
        report(3, f"con={con} inv={inv} dim={dim}, k=2 closure == "
                  f"span{{dx5+dx7, dt}}: {closure_ok}", ok)
        assert ok


class TestCriterion4:
    def test_end_to_end_construction(self, sec5, sec5_report):
        rep = sec5_report
        h = rep.output.components if rep.output else []
        two = len(h) == 2
        rd = vector_relative_degree(sec5, h) if two else None
        rd_ok = isinstance(rd, RelativeDegree) and rd.kappa == [3, 2] \
            and sum(rd.kappa) == 5
        vanish_ok = all(sec5.vanishes_on_N(c) == Zeroness.ZERO for c in h)
        E = lambda s: parse_expr(s, sec5.vars)
        printed = [E("x5 + x7"),
                   E("x1^2 + x2^2 + 2*x2*x7 - x3*exp(-x4)")]
        rd_printed = vector_relative_degree(sec5, printed)
        printed_ok = isinstance(rd_printed, RelativeDegree) \
            and rd_printed.kappa == [3, 2]
        ok = two and rd_ok and vanish_ok and printed_ok
        report(4, "solve emits 2 components, re-verified kappa (3, 2), "
                  f"vanishing on N, printed output verifies: {printed_ok}",
               ok)
        assert ok


class TestCriterion5:
    def test_lti_oracle_agreement(self):
        rng = random.Random(12345)
        agree = 0
        total = 100
        for _ in range(total):
            sysm, A, B, r = random_lti_instance(rng)
            ls = lift_system(sysm)
            flag = derived_flag(ls.I0)
            got = check_con(ls, flag)
            want = rank_test_oracle(A, B, r)
            if got == want:
                agree += 1
        ok = agree == total
        report(5, f"check_con vs matrix-rank test: {agree}/{total}", ok)
        assert agree == total


class TestCriterion6:
    def test_degenerate_point_target(self, chain3):
        rep = run_tfl(chain3)
        ok = (rep.success and rep.output.kappa == [3]
              and len(rep.output.components) == 1
              and rep.normal_form.eta == [])
        report(6, f"point-target chain: kappa {tuple(rep.output.kappa)}, "
                  "full-state linearizing output", ok)
        assert ok


class TestCriterion7:
    """Property suites, each at 200 seeded random cases."""

    def test_dd_zero(self):
        vs = VariableSpace.canonical(3, 1)
        rng = random.Random(101)
        bad = 0
        for _ in range(200):
            a = random_one_form(rng, vs)
            if not exterior_derivative(exterior_derivative(a)).is_structural_zero():
                bad += 1
        report(7, f"d(d(.)) = 0 on 200 random forms, {bad} failures",
               bad == 0)
        assert bad == 0

    def test_cartan_formula(self):
        from _brackets import contract, lie_derivative
        vs = VariableSpace.canonical(3, 1)
        rng = random.Random(102)
        bad = 0
        for _ in range(200):
            X = random_vector_field(rng, vs)
            a = random_one_form(rng, vs)
            lhs = lie_derivative(X, a)
            rhs = contract(X, exterior_derivative(a)) \
                + exterior_derivative(contract(X, a))
            if not (lhs - rhs).is_structural_zero():
                bad += 1
        report(7, f"Cartan formula on 200 random cases, {bad} failures",
               bad == 0)
        assert bad == 0

    def test_jacobi_identity(self):
        from _brackets import lie_bracket
        vs = VariableSpace.canonical(2, 1)
        rng = random.Random(103)
        bad = 0
        for _ in range(200):
            A = random_vector_field(rng, vs)
            B = random_vector_field(rng, vs)
            C = random_vector_field(rng, vs)
            s = (lie_bracket(lie_bracket(A, B), C)
                 + lie_bracket(lie_bracket(B, C), A)
                 + lie_bracket(lie_bracket(C, A), B))
            if not s.is_structural_zero():
                bad += 1
        report(7, f"Jacobi identity on 200 random triples, {bad} failures",
               bad == 0)
        assert bad == 0

    def test_flag_monotone_and_membership(self):
        from tflkit.errors import InconclusiveZeroTest, RegularityViolation
        rng = random.Random(104)
        bad = 0
        done = 0
        while done < 200:
            sysm = _random_small_system(rng)
            if sysm is None:
                continue
            ls = lift_system(sysm)
            try:
                flag = derived_flag(ls.I0)
            except (RegularityViolation, InconclusiveZeroTest):
                # the draw violates the standing regularity assumption at
                # x0; the flag invariants are only claimed under it
                continue
            counts = flag.generator_counts()
            ok = all(a >= b for a, b in zip(counts, counts[1:]))
            for k in range(1, len(flag.entries)):
                for ggen in flag.entry(k).generators:
                    if ideal_membership(ggen, flag.entry(k - 1)) \
                            == Membership.NON_MEMBER:
                        ok = False
            if not ok:
                bad += 1
            done += 1
        report(7, f"flag monotonicity+membership on 200 random systems, "
                  f"{bad} failures", bad == 0)
        assert bad == 0

    def test_duality_rank_agreement(self):
        """span{<I^(k), dt>}_p = Ann(U + S^(k-1))_p on random 3-state,
        2-input polynomial systems, at sampled points."""
        from tflkit.errors import InconclusiveZeroTest, RegularityViolation
        rng = random.Random(105)
        bad = 0
        done = 0
        while done < 200:
            sysm = _random_small_system(rng, n=3, m=2)
            if sysm is None:
                continue
            ls = lift_system(sysm)
            try:
                flag = derived_flag(ls.I0)
            except (RegularityViolation, InconclusiveZeroTest):
                continue
            k = rng.randint(1, max(1, len(flag.entries) - 1))
            fields = u_module(ls) + s_module(ls, k - 1)
            p = Point(ls.vars, [v + rng.uniform(-0.2, 0.2)
                                for v in ls.p0.as_float_tuple()])
            span = ideal_at(augment_with_dt(flag.entry(k)), p)
            dt_row = coordinate_form(ls.vars, 0).at(p)
            span = np.vstack([span, dt_row[None, :]]) if span.size \
                else dt_row[None, :]
            frows = np.array([X.at(p) for X in fields])
            if numlin.rank(span) + numlin.rank(frows) != ls.vars.total \
                    or np.max(np.abs(span @ frows.T)) > 1e-7:
                bad += 1
            done += 1
        report(7, f"bracket-module duality on 200 sampled cases, {bad} "
                  "failures", bad == 0)
        assert bad == 0

    def test_lemma_rank_formula_on_worked_fixture(self, sec5, sec5_lifted,
                                                  sec5_closures):
        """Restricted-rank formula for the integrated maps, checked at p0
        and at 99 sampled points of L for each of the two maps."""
        ls = sec5_lifted
        samples = sample_on_N(sec5, 99, seed=11)
        bad = 0
        cases = 0
        for k, vanish in ((2, 2), (1, 4)):
            F = frobenius_integrate(sec5_closures[k], ls)
            F = adapt_to_L(F, ls, target_vanish=vanish)
            ell = len(F.components)
            rows_of = lambda p: np.array(
                [d_of_function(c).at(p) for c in F.components])
            for p in [ls.p0] + samples:
                from tflkit.lift import ann_tangent_L
                ann = ann_tangent_L(ls, p)
                _, s, vh = np.linalg.svd(ann)
                cut = numlin.RANK_TOL * max(s[0], 1.0)
                tangent = vh[int(np.sum(s > cut)):]
                got = numlin.rank(rows_of(p) @ tangent.T)
                if got != ell - vanish:
                    bad += 1
                cases += 1
        report(7, f"restricted-rank formula on {cases} on-manifold points, "
                  f"{bad} failures", bad == 0)
        assert cases >= 200 and bad == 0


def _random_small_system(rng, n=None, m=None):
    """A random polynomial control system with a coordinate-slice target;
    returns None when the draw violates invariance."""
    from tflkit.errors import InvarianceViolation, RankDeficientN
    if n is None:
        n, m = rng.choice(((2, 1), (3, 1), (3, 2)))
    vs = VariableSpace.canonical(n, m)
    x = [Expr.var_index(vs, 1 + m + j) for j in range(n)]
    r = rng.randint(1, n - 1)
    # drift must keep {x_1..x_r = 0} invariant: those components vanish there
    f = []
    for i in range(n):
        e = Expr.zero(vs)
        for _ in range(rng.randint(0, 2)):
            c = rng.randint(-2, 2)
            j = rng.randrange(n)
            term = Expr.rational(vs, c) * x[j]
            if rng.random() < 0.4:
                term = term * x[rng.randrange(n)]
            e = e + term
        if i < r:
            e = e * x[rng.randrange(r)] if rng.random() < 0.5 \
                else x[rng.randrange(r)] * Expr.rational(vs, rng.randint(-2, 2))
        f.append(e)
    g = [[Expr.rational(vs, rng.randint(-2, 2)) for _ in range(n)]
         for _ in range(m)]
    defs = [x[i] for i in range(r)]
    try:
        return ControlSystem(vs, f, g, defs, [0] * n,
                             [Expr.zero(vs)] * m)
    except (InvarianceViolation, RankDeficientN, ValueError):
        return None


class TestCriterion8:
    def test_solve_determinism(self):
        pb = load_problem(SEC5_FILE)
        _, tree1, code1 = cmd_solve(pb)
        pb2 = load_problem(SEC5_FILE)
        _, tree2, code2 = cmd_solve(pb2)
        b1, b2 = dumps_report(tree1).encode(), dumps_report(tree2).encode()
        ok = b1 == b2 and code1 == code2 == 0
        report(8, f"two consecutive solves byte-identical: {b1 == b2}", ok)
        assert ok
