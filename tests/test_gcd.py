"""The integer polynomial gcd and exact division behind canonical forms:
heuristic gcd against sympy, its sign convention, heap-ordered exact
division, fraction reduction past sizes the old PRS gave up on, and the
pivot factor base, which takes no gcd."""

import random
from fractions import Fraction

import pytest

import tflkit.expr as expr
from tflkit.expr import Expr, VariableSpace, divide_by_gcd, \
    exact_quotient, parse_expr, primitive_factor_base
from tflkit.lift import lift_system
from tflkit.pfaffian import derived_flag
from conftest import decode, encode, make_sec5_system, random_polynomial, \
    random_rational

VS = VariableSpace.canonical(6, 1)
E = lambda s: parse_expr(s, VS)
# atoms of x1..x6 and of sin(x1), cos(x2), read off parsed expressions
# in the decoded form
VAR_ATOMS = [next(iter(decode(E(f"x{i}").num)))[0][0] for i in range(1, 7)]
KERNEL_ATOMS = [next(iter(decode(E(s).num)))[0][0]
                for s in ("sin(x1)", "cos(x2)")]
ONE = encode(VS, {(): 1})


def _random_poly(rng, atoms, terms, degree, box=9):
    """Integer coefficient dict with `terms` distinct monomials of total
    degree at most `degree` over `atoms`."""
    P = {}
    while len(P) < terms:
        exps = {}
        for _ in range(rng.randint(0, degree)):
            a = rng.choice(atoms)
            exps[a] = exps.get(a, 0) + 1
        P[tuple(sorted(exps.items()))] = (rng.choice([-1, 1])
                                          * rng.randint(1, box))
    return encode(VS, P)


def _grlex_greater(m1, m2):
    """Reference order on decoded monomials: total degree, then "an earlier
    atom with a larger exponent wins"."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return d1 > d2
    for (a1, e1), (a2, e2) in zip(m1, m2):
        if a1 != a2:
            return a1 < a2
        if e1 != e2:
            return e1 > e2
    return len(m1) > len(m2)


def _planted(rng, atoms, terms, degree):
    """A = G*F1 and B = G*F2 with a random common factor G."""
    G, F1, F2 = (_random_poly(rng, atoms, terms, degree) for _ in range(3))
    return expr._p_mul(G, F1), expr._p_mul(G, F2)


def _sympy_gcd(sympy, A, B):
    """sympy's gcd of A and B in Z[atoms], content included, with a positive
    grlex leading coefficient, as a tflkit coefficient dict."""
    atoms = sorted(expr._p_atoms(A) | expr._p_atoms(B))
    gens = sympy.symbols(f"a0:{len(atoms) + 1}")[:max(len(atoms), 1)]

    def to_poly(P):
        terms = {}
        for m, c in decode(P).items():
            exps = dict(m)
            terms[tuple(exps.get(a, 0) for a in atoms) or (0,)] = c
        return sympy.Poly.from_dict(terms, *gens, domain="ZZ")

    g = to_poly(A).gcd(to_poly(B))
    if g.LC(order="grlex") < 0:
        g = -g
    return encode(VS, {tuple((a, e) for a, e in zip(atoms, monom) if e):
                       int(c) for monom, c in g.terms()})


def _gcd(A, B):
    return expr._ip_cofactors(A, B)[0]


class TestGcdAgainstSympy:
    def test_planted_factor(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(5)
        for _ in range(40):
            A, B = _planted(rng, VAR_ATOMS, 4, 3)
            if rng.random() < 0.5:
                B = {m: c * 3 for m, c in B.items()}
            assert _gcd(A, B) == _sympy_gcd(sympy, A, B)

    def test_past_the_old_prs_cap(self):
        # the PRS settled for the integer content above 240 combined terms
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        sizes = []
        for _ in range(3):
            A, B = _planted(rng, VAR_ATOMS, 16, 4)
            sizes.append(len(A) + len(B))
            g = _gcd(A, B)
            assert g == _sympy_gcd(sympy, A, B)
            assert len(g) > 1
        assert min(sizes) > 240

    def test_kernel_atoms(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(9)
        atoms = VAR_ATOMS[:4] + KERNEL_ATOMS
        for _ in range(20):
            A, B = _planted(rng, atoms, 5, 3)
            assert _gcd(A, B) == _sympy_gcd(sympy, A, B)
        A, B = _planted(rng, atoms, 16, 4)
        assert len(A) + len(B) > 240
        assert _gcd(A, B) == _sympy_gcd(sympy, A, B)


class TestSignConvention:
    def test_positive_grlex_leading_coefficient(self):
        A = expr._p_mul(E("x2 - x1").num, E("x3 + 1").num)
        B = expr._p_mul(E("x2 - x1").num, E("-x4").num)
        assert _gcd(A, B) == E("x1 - x2").num

    def test_invariant_under_negation(self):
        rng = random.Random(3)
        for _ in range(30):
            A, B = _planted(rng, VAR_ATOMS, 3, 2)
            g = _gcd(A, B)
            assert g[expr._p_leading(g)] > 0
            assert _gcd(expr._p_neg(A), B) == g
            assert _gcd(A, expr._p_neg(B)) == g
            assert _gcd(expr._p_neg(A), expr._p_neg(B)) == g


class TestExactDivision:
    def test_heap_key_orders_like_grlex(self):
        # monomials compare in grlex order, and their negations, the heap
        # keys of exact division, in reverse
        rng = random.Random(8)
        monos = list(_random_poly(rng, VAR_ATOMS + KERNEL_ATOMS, 60, 4))
        for m1 in monos:
            for m2 in monos:
                greater = _grlex_greater(expr._mono_pairs(m1),
                                         expr._mono_pairs(m2))
                assert (m1 > m2) == (m2 < m1) == greater
                assert (-m1 < -m2) == (-m2 > -m1) == greater
        lead = expr._p_leading(dict.fromkeys(monos))
        assert all(not _grlex_greater(expr._mono_pairs(m),
                                      expr._mono_pairs(lead))
                   for m in monos)

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(40):
            B = _random_poly(rng, VAR_ATOMS + KERNEL_ATOMS, 5, 3)
            Q = _random_poly(rng, VAR_ATOMS + KERNEL_ATOMS, 6, 3)
            A = expr._p_mul(Q, B)
            assert expr._ip_divexact(A, B) == Q
            assert expr._p_mul(expr._ip_divexact(A, B), B) == A

    def test_not_divisible(self):
        rng = random.Random(6)
        for _ in range(40):
            B = _random_poly(rng, VAR_ATOMS, 4, 3)
            A = expr._p_add(expr._p_mul(_random_poly(rng, VAR_ATOMS, 4, 2), B),
                            E("x1^5 + 1").num)
            assert expr._ip_divexact(A, B) is None

    def test_integer_division_needs_integer_quotient(self):
        A, B = E("3*x1*x2 + 3").num, E("2*x1*x2 + 2").num
        # over Q the quotient is 3/2, which division of primitive parts finds
        assert exact_quotient(E("3*x1*x2 + 3"), E("2*x1*x2 + 2")) \
            == E("3/2")
        assert expr._ip_divexact(A, B) is None
        assert expr._ip_divexact(A, {}) is None
        assert expr._ip_divexact({}, B) == {}


class TestCanonicalFormsPastTheOldCap:
    def test_shared_factor_reduces(self):
        rng = random.Random(2)

        def random_expr(terms):
            return Expr._make(VS, _random_poly(rng, VAR_ATOMS, terms, 3),
                              ONE, {})

        P, Q, R = random_expr(16), random_expr(16), random_expr(16)
        num, den = P * Q, P * R
        assert len(num.num) + len(den.num) > 240
        assert (num / den).key() == (Q / R).key()
        assert num / den == Q / R


class TestGiveUp:
    @pytest.mark.parametrize("tries", [1, 3, 6])
    def test_failed_image_gcd_gives_up_at_once(self, monkeypatch, tries):
        # every point fails its division check, so the innermost level (x1,
        # whose images are integers) gives up after `tries` points, and the
        # two levels above it give up at their first point instead of
        # retrying with larger xi
        iA = E("(x1 + x2 + x3)*(x1 - 2*x2 + x3 + 1)").num
        iB = E("(x1 + x2 + x3)*(x2 + 3*x3 + 3)").num
        evaluations = []
        evaluate = expr._ip_evaluate
        monkeypatch.setattr(expr, "_HEU_GCD_TRIES", tries)
        monkeypatch.setattr(expr, "_ip_divexact", lambda A, B: None)
        monkeypatch.setattr(expr, "_ip_evaluate", lambda *a: evaluations.append(
            a[1]) or evaluate(*a))
        assert expr._heu_gcd(iA, iB) is None
        assert len(evaluations) == 2 + 2 + 2 * tries
        # the innermost level sets x1, the smallest variable of the three
        assert evaluations[-1] == next(iter(E("x1").num))
        assert decode(_gcd(iA, iB)) == {(): 1}

    def test_common_content_when_the_heuristic_gives_up(self, monkeypatch):
        divexact = expr._ip_divexact
        rng = random.Random(12)
        P, Q, R = (_random_poly(rng, VAR_ATOMS, 6, 3) for _ in range(3))
        A = {m: 6 * c for m, c in expr._p_mul(P, Q).items()}
        B = {m: 4 * c for m, c in expr._p_mul(P, R).items()}
        monkeypatch.setattr(expr, "_heu_gcd", lambda A, B: None)
        g = _gcd(A, B)
        assert decode(g) == {(): 2 * expr._int_content(P)}
        assert divexact(A, g) is not None and divexact(B, g) is not None
        # a fraction whose gcd falls back keeps its value
        point = expr.Point(VS, [Fraction(i + 2, 3) for i in range(VS.total)])
        num = Expr._make(VS, expr._p_mul(P, Q), ONE, {})
        den = Expr._make(VS, expr._p_mul(P, R), ONE, {})
        q = Expr._make(VS, Q, ONE, {})
        r = Expr._make(VS, R, ONE, {})
        assert (num / den).eval(point) == (q / r).eval(point)


class TestNoGiveUpOnSec5:
    def test_heuristic_complete_on_the_derived_flag(self, monkeypatch):
        calls = {"heu": 0, "none": 0}
        heu = expr._heu_gcd

        def heu_spy(A, B):
            calls["heu"] += 1
            g = heu(A, B)
            calls["none"] += g is None
            return g

        monkeypatch.setattr(expr, "_heu_gcd", heu_spy)
        flag = derived_flag(lift_system(make_sec5_system()).I0)
        assert [len(flag.entry(k)) for k in range(4)] == [7, 5, 3, 0]
        assert calls["heu"] > 0
        assert calls["none"] == 0


def _divexact_cofactors(A, B):
    g = _gcd(A, B)
    return g, expr._ip_divexact(A, g), expr._ip_divexact(B, g)


class TestCofactors:
    """The quotients of the gcd's own division check equal a second exact
    division by the gcd."""

    def test_planted_and_rational(self):
        # scaled inputs: the integer forms of rational multiples
        rng = random.Random(21)
        for _ in range(40):
            A, B = _planted(rng, VAR_ATOMS, 4, 3)
            if rng.random() < 0.5:
                B = {m: c * rng.choice([3, 4, 7]) for m, c in B.items()}
            if rng.random() < 0.5:
                A = {m: c * 5 for m, c in A.items()}
            assert expr._ip_cofactors(A, B) == _divexact_cofactors(A, B)

    def test_kernel_atoms(self):
        rng = random.Random(22)
        for _ in range(20):
            A, B = _planted(rng, VAR_ATOMS[:4] + KERNEL_ATOMS, 5, 3)
            assert expr._ip_cofactors(A, B) == _divexact_cofactors(A, B)

    def test_constants_and_zero(self):
        P = E("3/2*x1*x2 - 3*x3 + 6").num
        four, minus_two, six, nine = (encode(VS, {(): c})
                                      for c in (4, -2, 6, 9))
        for A, B in [(P, four), (minus_two, P), (six, nine), (P, P)]:
            assert expr._ip_cofactors(A, B) == _divexact_cofactors(A, B)
        # the integer gcd takes nonzero inputs; zero entries of a row are
        # skipped, and one nonzero entry alone is made monic
        zero, p = E("0"), E("3/2*x1*x2 - 3*x3 + 6")
        assert divide_by_gcd([p, zero]) == [E("3/2"), zero]
        assert divide_by_gcd([zero, p]) == [zero, E("3/2")]
        row = [zero, zero]
        assert divide_by_gcd(row) is row
        # the gcd is content-free: x1*x2 - 2*x3 + 4
        assert divide_by_gcd([p, p]) == [E("3/2"), E("3/2")]

    def test_unit_gcd_returns_the_inputs(self):
        A, B = E("x1 + 1").num, E("x2 - 1/3").num
        g, qa, qb = expr._ip_cofactors(A, B)
        assert decode(g) == {(): 1} and qa is A and qb is B

    def test_integer_cofactors(self):
        rng = random.Random(23)
        for _ in range(20):
            A, B = _planted(rng, VAR_ATOMS, 4, 3)
            g, qa, qb = expr._ip_cofactors(A, B)
            assert g[expr._p_leading(g)] > 0
            assert qa == expr._ip_divexact(A, g)
            assert qb == expr._ip_divexact(B, g)

    def test_give_up_returns_content_and_divided_inputs(self, monkeypatch):
        rng = random.Random(24)
        P, Q, R = (_random_poly(rng, VAR_ATOMS, 5, 3) for _ in range(3))
        A = {m: 6 * c for m, c in expr._p_mul(P, Q).items()}
        B = {m: 4 * c for m, c in expr._p_mul(P, R).items()}
        monkeypatch.setattr(expr, "_heu_gcd", lambda A, B: None)
        c = 2 * expr._int_content(P)
        assert expr._ip_cofactors(A, B) == (
            encode(VS, {(): c}), {m: v // c for m, v in A.items()},
            {m: v // c for m, v in B.items()})
        assert expr._ip_cofactors(A, B) == _divexact_cofactors(A, B)
        # a constant gcd leaves a row as it is
        row = [Expr._make(VS, X, encode(VS, {(): 5}), {}) for X in (A, B)]
        assert divide_by_gcd(row) is row


class TestNoSecondDivision:
    def test_canonical_forms_and_rows_without_divexact(self, monkeypatch):
        # every exact division happens inside the gcd, as its own check
        from tflkit import pfaffian

        depth = [0]
        heu, divexact = expr._heu_gcd, expr._ip_divexact

        def heu_spy(A, B):
            depth[0] += 1
            try:
                return heu(A, B)
            finally:
                depth[0] -= 1

        def no_divexact(A, B):
            if not depth[0]:
                raise AssertionError("exact division after a gcd")
            return divexact(A, B)

        num, den = E("(x1 - x2)*(x3 + 2)"), E("(x1 - x2)*(3*x4 - 1)")
        row = [num / den, E("x1 - x2") / E("x4 + 1"), E("0")]
        monkeypatch.setattr(expr, "_heu_gcd", heu_spy)
        monkeypatch.setattr(expr, "_ip_divexact", no_divexact)
        q = num / den
        assert q == E("(x3 + 2)/(3*x4 - 1)")
        cleared = pfaffian._clear_denominators_row(row)
        # denominators are monic, so the multiplier is (x4 - 1/3)*(x4 + 1)
        assert cleared == [E("(x3 + 2)*(x4 + 1)/3"),
                           E("(x1 - x2)*(x4 - 1/3)"), E("0")]
        assert pfaffian._row_primitive(cleared) == cleared
        # the running gcd shrinks from the first entry to x1 - x2, and the
        # first quotients take up the factor it lost
        shared = [E("(x1 - x2)*(x3 + 2)*x4"), E("2*(x1 - x2)*x4^2"),
                  E("(x1 - x2)*(x2 + 5)")]
        assert pfaffian._row_primitive(shared) == [
            E("(x3 + 2)*x4"), E("2*x4^2"), E("x2 + 5")]


class TestCoprimeFactorBase:
    """The pivot factor base, `primitive_factor_base`, which took the place
    of the coprime factor base: every input is its unit times its primitive
    part, associates share one base element, constants have none, the base
    is content-free with positive leading coefficients and an order fixed
    by the inputs' values alone, and no gcd is taken, so the base need not
    be coprime."""

    F = "x1*x5 + x4^2 + 2"

    def _check(self, inputs):
        base, factored = primitive_factor_base(inputs)
        assert len(factored) == len(inputs)
        for e, (unit, powers) in zip(inputs, factored):
            assert isinstance(unit, Fraction) and unit != 0
            assert len(powers) <= 1 and set(powers.values()) <= {1}
            product = Expr.rational(VS, unit)
            for b in powers:
                assert any(b is x for x in base)
                product = product * b
            assert product == e
        for b in base:
            assert expr._is_unit(b.den) and not expr._is_const(b.num)
            assert expr._int_content(b.num) == 1
            assert b.num[expr._p_leading(b.num)] > 0
        assert len(set(base)) == len(base)
        return base, factored

    def _powers(self, factored):
        return [(unit, {str(b): m for b, m in powers.items()})
                for unit, powers in factored]

    def test_associates_share_one_element(self):
        f = E(self.F)
        base, factored = self._check([f, -f, 3 * f, f / 2, E("-2/3") * f])
        assert base == [f]
        assert self._powers(factored) == [
            (u, {self.F: 1}) for u in (1, -1, 3, Fraction(1, 2),
                                       Fraction(-2, 3))]

    def test_nested_factors_stay_whole(self):
        f = E(self.F)
        inputs = [E("x1") * f, -f, E("x1^2") * f ** 3, E("-2*x1") * f]
        base, factored = self._check(inputs)
        assert sorted(map(str, base)) == sorted(
            map(str, (E("x1") * f, f, E("x1^2") * f ** 3)))
        assert [u for u, _ in factored] == [1, -1, 1, -2]
        assert factored[0][1] == factored[3][1]

    def test_constants_are_units(self):
        f = E(self.F)
        base, factored = self._check([E("-1"), E("2"), E("1/3"), -2 * f])
        assert base == [f]
        assert self._powers(factored) == [
            (-1, {}), (2, {}), (Fraction(1, 3), {}), (-2, {self.F: 1})]
        assert primitive_factor_base([E("-1"), E("7")]) == (
            [], [(-1, {}), (7, {})])

    def test_kernel_atoms(self):
        f, h = E(self.F), E("exp(x3) + x1")
        inputs = [E("sin(x1)") * f, E("-cos(x2)*sin(x1)"), h ** 2 * f, 2 * h,
                  E("-3*sin(x1)") * f]
        base, factored = self._check(inputs)
        assert sorted(map(str, base)) == sorted(
            map(str, (E("sin(x1)") * f, E("cos(x2)*sin(x1)"), h ** 2 * f,
                      h)))
        assert self._powers(factored)[1] == (-1, {"cos(x2)*sin(x1)": 1})
        assert self._powers(factored)[3] == (2, {str(h): 1})
        assert factored[4] == (-3, factored[0][1])

    def test_seeded_products(self):
        rng = random.Random(9)
        for _ in range(12):
            parts = [random_polynomial(rng, VS, degree=2, terms=3,
                                       kernels=True) for _ in range(3)]
            parts = [p for p in parts if p.as_rational() is None]
            inputs = []
            for _ in range(5):
                e = Expr.rational(VS, random_rational(rng) or 1)
                for p in parts:
                    e = e * p ** rng.randint(0, 2)
                inputs.append(e)
            self._check(inputs)

    def test_takes_no_gcd(self, monkeypatch):
        f, g = E(self.F), E("x2 - x3 + 1")
        inputs = [E("x1") * f, g * f ** 2, -g, E("sin(x1)") * g, 3 * g,
                  E("3")]

        def no_gcd(A, B):
            raise AssertionError("the factor base took a gcd")

        monkeypatch.setattr(expr, "_ip_cofactors", no_gcd)
        base, factored = self._check(inputs)
        assert len(base) == 4
        assert factored[2][1] == factored[4][1]

    def test_order_is_deterministic(self):
        rng = random.Random(11)
        f, g = E(self.F), E("x2 - x3 + 1")
        inputs = [E("x1") * f, g * f ** 2, -g, E("sin(x1)") * g, E("3")]
        first, _ = primitive_factor_base(inputs)
        assert len(first) == 4
        for _ in range(5):
            rng.shuffle(inputs)
            base, factored = self._check(inputs)
            assert base == first
            assert [list(p) for _, p in factored] == [
                [b for b in first if b in p] for _, p in factored]

    def test_exact_when_the_heuristic_gives_up(self, monkeypatch):
        f = E(self.F)
        monkeypatch.setattr(expr, "_heu_gcd", lambda A, B: None)
        inputs = [E("x1") * f, -f, 3 * f]
        base, factored = primitive_factor_base(inputs)
        for e, (unit, powers) in zip(inputs, factored):
            product = Expr.rational(VS, unit)
            for b, m in powers.items():
                product = product * b ** m
            assert product == e

    def test_rejects_zero_and_quotients(self):
        with pytest.raises(ValueError):
            primitive_factor_base([E("x1"), E("0")])
        with pytest.raises(ValueError):
            primitive_factor_base([E("x1/x2")])


def _to_sympy(sympy, e, names):
    """A polynomial Expr as a sympy expression, term by term."""
    out = sympy.Integer(0)
    for c, factors in e.terms():
        term = sympy.Rational(c.numerator, c.denominator)
        for base, k in factors:
            kernel = base.as_kernel()
            if kernel is None:
                term *= names[str(base)] ** k
            else:
                kind, arg = kernel
                term *= getattr(sympy, kind)(_to_sympy(sympy, arg,
                                                       names)) ** k
        out += term
    return out


class TestDivideByFactors:
    """Dividing a row by known factors before its gcd changes no primitive
    row: divide_by_gcd(divide_by_factors(row, fs)) == divide_by_gcd(row)."""

    VS = VariableSpace.canonical(4, 1)

    def _case(self, rng, kernels):
        vs = self.VS
        parts = [random_polynomial(rng, vs, degree=2, terms=3,
                                   kernels=kernels) for _ in range(3)]
        parts = [p for p in parts if p.as_rational() is None]
        common = Expr.one(vs)
        for p in parts:
            common = common * p ** rng.randint(0, 2)
        row = []
        for _ in range(rng.randint(1, 5)):
            if rng.random() < 0.25:
                row.append(Expr.zero(vs))
                continue
            scale = random_rational(rng) or Fraction(1)
            row.append(common * scale * random_polynomial(
                rng, vs, degree=2, terms=3, kernels=kernels))
        # associates with negative and non-unit leading coefficients,
        # powers, factors that do not divide, and constants
        factors = [p * rng.choice([-3, -1, 2, Fraction(5, 7)])
                   for p in parts]
        factors += [p ** 2 for p in parts[:1]]
        factors += [random_polynomial(rng, vs, kernels=kernels),
                    Expr.rational(vs, rng.choice([-2, 3]))]
        rng.shuffle(factors)
        return row, factors

    def _check(self, row, factors):
        divided = expr.divide_by_factors(row, factors)
        assert divide_by_gcd(divided) == divide_by_gcd(row)
        nonzero = [i for i, e in enumerate(row) if not e.is_structural_zero()]
        if len(nonzero) < 2:
            assert divided is row
            return divided
        # each factor went as often as it divides every entry
        for f in factors:
            F = expr._int_primitive(f.num)
            if not expr._is_const(F):
                assert not all(expr._ip_divexact(divided[i].num, F)
                               is not None for i in nonzero)
        # the quotients are the entries over one common factor
        ratios = {divided[i] / row[i] for i in nonzero}
        assert len(ratios) == 1
        assert all(divided[i].is_structural_zero()
                   for i in range(len(row)) if i not in nonzero)
        return divided

    def test_property(self):
        rng = random.Random(31)
        stats = {"divided": 0, "single": 0, "zero": 0}
        for _ in range(150):
            row, factors = self._case(rng, kernels=False)
            divided = self._check(row, factors)
            stats["divided"] += divided is not row
            nonzero = sum(not e.is_structural_zero() for e in row)
            stats["single"] += nonzero == 1
            stats["zero"] += nonzero < len(row)
        assert min(stats.values()) >= 10

    def test_kernel_atoms(self):
        rng = random.Random(32)
        divided = 0
        for _ in range(60):
            row, factors = self._case(rng, kernels=True)
            divided += self._check(row, factors) is not row
        s, h = Expr.kernel("sin", E("x1")), E("exp(x2) + x3")
        row = [s * h ** 2, -3 * s * h * E("x4"), E("0"), s ** 2 * h]
        out = self._check(row, [h * -2, s, E("cos(x1)")])
        assert out == [h, -3 * E("x4"), E("0"), s]
        assert divided >= 10

    def test_single_entry_keeps_its_leading_coefficient(self):
        f = E("-2*x1 + x2")
        row = [E("0"), 3 * f ** 2, E("0")]
        assert expr.divide_by_factors(row, [f]) is row
        assert divide_by_gcd(row) == [E("0"), E("12"), E("0")]

    def test_associates_and_content(self):
        # the factor counts content-free with a positive leading
        # coefficient, so the integer contents of the row stay
        f = E("-2*x1 + 4*x2 - 6")
        row = [6 * f * E("x3"), -f ** 2, 4 * f]
        out = self._check(row, [f])
        assert out == [-12 * E("x3"), E("-4*x1 + 8*x2 - 12"), E("-8")]
        assert self._check(row, [E("x1 - 2*x2 + 3"), E("x3")]) == out

    def test_no_factor_divides(self):
        row = [E("x1^2 + x2"), E("x1*x2 - 1")]
        assert expr.divide_by_factors(row, [E("x1"), E("x2 + 1"),
                                            E("7")]) is row

    def test_fails_on_the_leading_term(self, monkeypatch):
        # x2 + 1 does not divide x1^2 + x2: the leading terms show it, so
        # no division is tried
        def no_divexact(A, B):
            raise AssertionError("division tried")

        monkeypatch.setattr(expr, "_ip_divexact", no_divexact)
        row = [E("x1^2 + x2"), E("(x2 + 1)*x3")]
        assert expr.divide_by_factors(row, [E("x2 + 1"), E("x3")]) is row

    def test_primitive_under_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(33)
        names = {nm: sympy.Symbol(nm) for nm in self.VS.names}
        checked = 0
        for _ in range(16):
            row, factors = self._case(rng, kernels=rng.random() < 0.3)
            out = divide_by_gcd(expr.divide_by_factors(row, factors))
            pairs = [(_to_sympy(sympy, a, names), _to_sympy(sympy, b, names))
                     for a, b in zip(row, out) if not a.is_structural_zero()]
            if len(pairs) < 2:
                continue
            (a0, b0), = pairs[:1]
            assert all(sympy.expand(b * a0 - b0 * a) == 0 for a, b in pairs)
            g = sympy.gcd_list([b for _, b in pairs])
            assert not g.free_symbols and not g.has(sympy.Function)
            checked += 1
        assert checked >= 8
