"""Expression engine: parsing, calculus, evaluation, zero testing."""

import math
import random
from fractions import Fraction

import pytest

import tflkit.expr as expr
from tflkit.errors import DomainError, ExprSyntaxError, UnknownVariable
from tflkit.expr import (Expr, Point, VariableSpace, Zeroness,
                         denominator_lcm, exact_quotient, parse_expr)
from conftest import decode, random_polynomial, random_point, random_rational
from _exprs import diff, eval_at, is_zero, point_from_map, substitute

VS = VariableSpace.canonical(7, 2)
E = lambda s: parse_expr(s, VS)
X0 = point_from_map(VS, dict(t=0, u1=0, u2=0, x1=2, x2=0, x3=4, x4=0,
                             x5=0, x6=0, x7=0))


class TestParse:
    def test_polynomial_three_terms(self):
        e = E("x1^2 + x2^2 - x3")
        assert len(e.num) == 3
        assert str(e) == "x1^2 + x2^2 - x3"

    def test_zero(self):
        assert E("0").is_structural_zero()

    def test_product_with_kernel(self):
        e = E("x3*exp(-x4) - 4")
        assert e.has_kernels()
        assert str(e) == "x3*exp(-x4) - 4"

    def test_rational_literals(self):
        assert E("1/2").as_rational() == Fraction(1, 2)
        assert E("0.25").as_rational() == Fraction(1, 4)

    def test_precedence(self):
        assert E("-2^2").as_rational() == -4
        assert E("2*x1 + 3*x2") == E("x2*3 + x1*2")
        assert E("x1/2/2") == E("x1/4")
        assert E("x1^-2") == E("1/(x1^2)")

    def test_power_requires_integer_literal(self):
        with pytest.raises(ExprSyntaxError):
            E("x1^x2")
        with pytest.raises(ExprSyntaxError):
            E("x1^2^3")
        with pytest.raises(ExprSyntaxError):
            E("x1^1.5")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            E("x1 + y2")
        assert err.value.name == "y2"

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            E("x1 + ")
        assert err.value.position == 5

    def test_unknown_function(self):
        with pytest.raises(ExprSyntaxError):
            E("tan(x1)")

    def test_roundtrip_spec_examples(self):
        for s in ["x1^2 + x2^2 - x3", "x3*exp(-x4) - 4", "1/2*x1 - 3/4",
                  "sin(x1 + x2)*cos(x3)^2", "(x1 + 1)/(x2 - 2)"]:
            e = E(s)
            assert parse_expr(str(e), VS) == e

    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(120):
            e = random_polynomial(rng, VS, kernels=True)
            assert parse_expr(str(e), VS) == e


class TestDiff:
    def test_power_rule(self):
        assert diff(E("x1^2 + x2^2 - x3"), "x1") == E("2*x1")

    def test_chain_rule_exp(self):
        assert diff(E("x3*exp(-x4)"), "x4") == E("-x3*exp(-x4)")

    def test_independent_variable(self):
        assert diff(E("t"), "x1").is_structural_zero()

    def test_trig(self):
        assert diff(E("sin(x1^2)"), "x1") == E("2*x1*cos(x1^2)")
        assert diff(E("cos(x1)"), "x1") == E("-sin(x1)")
        assert diff(E("ln(x1)"), "x1") == E("1/x1")

    def test_quotient(self):
        e = E("x1/x2")
        assert diff(e, "x2") == E("-x1/x2^2")

    def test_product_rule_random(self):
        rng = random.Random(5)
        for _ in range(60):
            a = random_polynomial(rng, VS, kernels=True)
            b = random_polynomial(rng, VS, kernels=True)
            v = rng.randrange(VS.total)
            lhs = diff(a * b, v)
            rhs = diff(a, v) * b + a * diff(b, v)
            assert is_zero(lhs - rhs) == Zeroness.ZERO

    def test_partials_are_taken_once(self):
        # the second request returns the stored object, which is the
        # derivative a freshly parsed copy computes on its own
        rng = random.Random(17)
        for _ in range(40):
            e = random_polynomial(rng, VS, kernels=True)
            if rng.random() < 0.5:
                e = e / random_polynomial(rng, VS)
            for v in range(VS.total):
                d = e.diff(v)
                assert e.diff(v) is d
                assert e.diff(VS.names[v]) is d
                assert parse_expr(str(e), VS).diff(v) == d


class TestSubstitute:
    def test_vanishing(self):
        assert substitute(E("x5 + x7"), {"x5": 0, "x7": 0}).is_structural_zero()

    def test_kernel_argument(self):
        assert substitute(E("x3*exp(-x4) - 4"), {"x4": 0}) == E("x3 - 4")

    def test_time(self):
        assert substitute(E("t"), {"t": 0}).is_structural_zero()

    def test_simultaneous(self):
        e = substitute(E("x1*x2"), {"x1": E("x2"), "x2": E("x1")})
        assert e == E("x1*x2")

    def test_eval_compatibility_random(self):
        rng = random.Random(7)
        for _ in range(60):
            e = random_polynomial(rng, VS, kernels=True)
            v = rng.randrange(VS.total)
            c = Expr.rational(VS, random_rational(rng))
            p = random_point(rng, VS)
            try:
                lhs = eval_at(substitute(e, {v: c}), p)
                p2 = Point(VS, [c.eval(p) if i == v else p.values[i]
                                for i in range(VS.total)])
                rhs = eval_at(e, p2)
            except DomainError:
                continue
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestEval:
    def test_on_manifold_point(self):
        assert eval_at(E("x1^2 + x2^2 - x3"), X0) == 0.0

    def test_exp_zero(self):
        assert eval_at(E("exp(0)"), X0) == 1.0

    def test_kernel_at_x0(self):
        assert eval_at(E("x3*exp(-x4) - 4"), X0) == 0.0

    def test_exact_rational_path(self):
        v = E("x1/3 + 1/6").eval(X0)
        assert v == Fraction(5, 6)

    def test_ln_domain_error(self):
        with pytest.raises(DomainError):
            eval_at(E("ln(x2)"), X0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_at(E("1/x2"), X0)


def _fraction_eval(poly, point):
    """Reference: a plain Fraction sum over the terms of a kernel-free
    polynomial."""
    total = Fraction(0)
    for mono, c in decode(poly).items():
        v = Fraction(c)
        for (_, i), e in mono:
            v *= point.value(i) ** e
        total += v
    return total


class TestIntegerEval:
    """Exact evaluation at rational points runs in integers; it must agree
    with plain Fraction arithmetic."""

    def _points(self, rng):
        pts = [X0, Point(VS, [0] * VS.total)]
        for _ in range(6):
            p = random_point(rng, VS)
            vals = list(p.values)
            vals[rng.randrange(VS.total)] = Fraction(0)
            vals[rng.randrange(VS.total)] = Fraction(-rng.randint(1, 9),
                                                     rng.choice([1, 7, 12]))
            pts.append(Point(VS, vals))
        return pts

    def test_random_rational_functions(self):
        rng = random.Random(31)
        points = self._points(rng)
        for _ in range(60):
            e = random_polynomial(rng, VS, degree=3, terms=5)
            if rng.random() < 0.5:
                e = e / random_polynomial(rng, VS, degree=2, terms=3)
            for p in points:
                den = _fraction_eval(e.den, p)
                if den == 0:
                    with pytest.raises(DomainError):
                        e.eval(p)
                    continue
                v = e.eval(p)
                assert isinstance(v, Fraction)
                assert v == _fraction_eval(e.num, p) / den

    def test_empty_and_constant(self):
        for p in self._points(random.Random(32)):
            assert E("0").eval(p) == 0
            assert E("-7/3").eval(p) == Fraction(-7, 3)
            assert E("x1 - x1").eval(p) == 0

    def test_constant_is_its_own_value(self, monkeypatch):
        # exact, float and perturbed points alike, without the point's
        # integer form
        from tflkit.pfaffian import perturbed_points
        points = [X0, X0.replace(x1=0.5, x3=1e-3)] + perturbed_points(X0)
        constants = [(E("0"), Fraction(0)), (E("-7/3"), Fraction(-7, 3)),
                     (E("x1 - x1 + 5/2"), Fraction(5, 2)),
                     (E("(x1^2 - 1)/(3*x1 - 3) - x1/3"), Fraction(1, 3))]

        def no_integer_form(p):
            raise AssertionError("a constant read the point's integer form")

        monkeypatch.setattr(Point, "integer_form", no_integer_form)
        for c, value in constants:
            for p in points:
                v = c.eval(p)
                assert v == value and type(v) is Fraction

    def test_vanishing_denominator(self):
        p = X0.replace(x2=Fraction(1, 3), x4=Fraction(-1, 3))
        with pytest.raises(DomainError):
            E("x1/(x2 + x4)").eval(p)
        with pytest.raises(DomainError):
            E("1/(x1^2 - 4)").eval(X0)

    def test_kernel_and_float_points_take_the_float_path(self):
        p = X0.replace(x4=Fraction(1, 2))
        assert E("x3*exp(-x4) - 4").eval(p) == 4 * math.exp(-0.5) - 4
        q = X0.replace(x1=0.5)
        v = E("x1^2/3 + x3").eval(q)
        assert isinstance(v, float) and v == 0.25 / 3 + 4
        # a float bound only to a variable the expression lacks
        assert E("x2 + 1/3").eval(q) == Fraction(1, 3)


class TestIsZero:
    def test_worked_combination(self):
        comb = E("2*(x1^2/2 + x2*x7 - 2) + x2^2 - (x3*exp(-x4) - 4) "
                 "- (x1^2 + x2^2 + 2*x2*x7 - x3*exp(-x4))")
        assert is_zero(comb) == Zeroness.ZERO

    def test_literal_zero(self):
        assert is_zero(E("0")) == Zeroness.ZERO

    def test_variable(self):
        assert is_zero(E("x1")) == Zeroness.NONZERO

    def test_kernel_identity_is_inconclusive(self):
        assert is_zero(E("sin(x1)^2 + cos(x1)^2 - 1")) == Zeroness.INCONCLUSIVE

    def test_nonzero_kernel_expression(self):
        assert is_zero(E("exp(x1) + x2")) == Zeroness.NONZERO


def _equal_pairs(seed, count):
    """Pairs of equal expressions built along different paths."""
    rng = random.Random(seed)
    for _ in range(count):
        a, b, c = (random_polynomial(rng, VS, kernels=True)
                   for _ in range(3))
        yield (a + b) * c, a * c + b * c
        if not b.is_structural_zero():
            yield (a * b) / b, a
        if a != c:
            yield (a * a - c * c) / (a - c), a + c
        kind = rng.choice(("exp", "sin"))
        k1, k2 = Expr.kernel(kind, a + b), Expr.kernel(kind, b + a)
        yield (a * k1) * c, k2 * (c * a)
        yield k1 * k1 - c * k1, (k2 - c) * k2


class TestHash:
    def test_equal_expressions_hash_equally(self):
        pairs = 0
        for x, y in _equal_pairs(41, 40):
            assert x == y and hash(x) == hash(y)
            pairs += 1
        assert pairs >= 150

    def test_hash_reads_the_packed_form(self, monkeypatch):
        built = [x for pair in _equal_pairs(43, 10) for x in pair]
        built += [E("x1*exp(-x4)/(x2 + 1)"), E("sin(x1^2)^2"), E("0")]

        def no_key(self):
            raise AssertionError("__hash__ decoded key()")

        monkeypatch.setattr(Expr, "key", no_key)
        memo = {}
        for x in built:
            memo.setdefault(x, x)
        assert all(memo[x] == x for x in built)


class TestCanonicalForm:
    def test_simplify_idempotent_random(self):
        rng = random.Random(13)
        for _ in range(120):
            e = random_polynomial(rng, VS, kernels=True)
            again = (e + Expr.zero(VS)) * Expr.one(VS)
            assert again == e and again.key() == e.key()

    def test_fraction_reduction(self):
        assert E("(x1^2 - 1)/(x1 - 1)") == E("x1 + 1")

    def test_lowest_terms_positive_denominator(self):
        e = E("2/4")
        assert e.as_rational() == Fraction(1, 2)
        assert str(E("-1/2*x1")) == "-1/2*x1"

    def test_kernel_atoms_by_canonical_argument(self):
        assert E("exp(x1 + x2)") == E("exp(x2 + x1)")
        assert E("exp(x1)") != E("exp(x2)")

    def test_cross_multiplication_equality(self):
        a = E("x1/(x2*x3)")
        b = E("(x1*x4)/(x2*x3*x4)")
        assert is_zero(a - b) == Zeroness.ZERO



def _random_quotients(rng, count):
    out = []
    while len(out) < count:
        den = random_polynomial(rng, VS, degree=2, terms=3)
        if not den.is_structural_zero():
            out.append(random_polynomial(rng, VS, degree=3, terms=4,
                                         kernels=True) / den)
    return out


class TestIntegerForm:
    """num and den are integer polynomials, coprime with contents, and den
    has a positive grlex leading coefficient."""

    def test_scalars_live_in_the_denominator(self):
        e = E("x1/2")
        assert e.num == E("x1").num and decode(e.den) == {(): 2}
        assert e.is_polynomial()
        q = E("(2*x1 + 2)/(4*x2 - 6)")
        assert q.num == E("x1 + 1").num and q.den == E("2*x2 - 3").num
        s = E("x1/(1 - 2*x2)")
        assert s.num == E("-x1").num and s.den == E("2*x2 - 1").num
        assert not s.is_polynomial()

    def test_random_forms_and_keys(self):
        rng = random.Random(71)
        for e in _random_quotients(rng, 60):
            coeffs = list(e.num.values()) + list(e.den.values())
            assert all(type(c) is int for c in coeffs)
            content = 0
            for c in coeffs:
                content = math.gcd(content, c)
            assert content == 1
            lc = e.den[expr._p_leading(e.den)]
            assert lc > 0
            # key() holds the Fraction coefficients over a monic denominator
            assert e.key() == tuple(
                tuple(sorted((m, (Fraction(c, lc).numerator,
                                  Fraction(c, lc).denominator))
                             for m, c in decode(P).items()))
                for P in (e.num, e.den))

    def test_numerator_and_denominator(self):
        rng = random.Random(72)
        for e in _random_quotients(rng, 30):
            num, den = e.numerator(), e.denominator()
            assert num.is_polynomial() and den.is_polynomial()
            assert num / den == e
            assert den.num[expr._p_leading(den.num)] == decode(den.den)[()]
        assert E("3*x1/(2*x2 + 4)").denominator() == E("x2 + 2")
        assert E("3*x1/(2*x2 + 4)").numerator() == E("3/2*x1")
        assert E("x1/3").denominator() == E("1")

    def test_terms_rebuild_the_polynomial(self):
        rng = random.Random(73)
        for _ in range(40):
            e = random_polynomial(rng, VS, degree=3, terms=4, kernels=True)
            total = Expr.zero(VS)
            for c, factors in e.terms():
                term = Expr.rational(VS, c)
                for base, k in factors:
                    assert (base.as_kernel() is not None
                            or base == E(str(base)))
                    term = term * base ** k
                total = total + term
            assert total == e
        with pytest.raises(ValueError):
            E("1/x1").terms()

    def test_as_kernel(self):
        assert E("sin(x1 + 1)").as_kernel() == ("sin", E("x1 + 1"))
        assert E("2*sin(x1)").as_kernel() is None
        assert E("sin(x1)^2").as_kernel() is None
        assert E("x1").as_kernel() is None

    def test_exact_quotient(self):
        rng = random.Random(74)
        for _ in range(40):
            d = random_polynomial(rng, VS, degree=2, terms=3)
            q = random_polynomial(rng, VS, degree=2, terms=3)
            if d.is_structural_zero():
                continue
            assert exact_quotient(q * d, d) == q
            r = q + E("x1^5 + 1")
            assert exact_quotient(r, d) == r / d
        assert exact_quotient(E("0"), E("x1")) == E("0")

    def test_denominator_lcm_of_monic_denominators(self):
        # lcm * (den / g) with g content-free: (x1 + 1/3) * ((x2 + 1)/3)
        assert denominator_lcm([E("1/(3*x1 + 1)"),
                                E("1/((3*x1 + 1)*(x2 + 1))")]) \
            == E("(x1 + 1/3)*(x2 + 1)/3")
        assert denominator_lcm([E("1/(2*x1 + 2)"), E("x2/(x1 + 1)^2")]) \
            == E("(x1 + 1)^2")
        assert denominator_lcm([E("x1/2"), E("3")]) == E("1")

    def test_denominator_lcm_divides_by_each_leading_coefficient(self):
        # once per expression with that denominator, so the rational factor
        # depends on how many entries share it
        entries = [E("1/(2*x1 + 1)"), E("x2/(2*x1 + 1)"), E("x3/(2*x1 + 1)")]
        assert [denominator_lcm(entries[:k]) for k in (1, 2, 3)] == [
            E("x1 + 1/2"), E("1/2*x1 + 1/4"), E("1/4*x1 + 1/8")]


# -- identity arithmetic against the general route ---------------------------

def _general(op, a, b):
    """a op b by Expr._make on the full formula: the general route, with no
    identity shortcut."""
    mul = expr._p_mul
    den = mul(a.den, b.den)
    if op == "+":
        num = expr._p_add(mul(a.num, b.den), mul(b.num, a.den))
    elif op == "-":
        num = expr._p_add(mul(a.num, b.den), expr._p_neg(mul(b.num, a.den)))
    elif op == "*":
        num = mul(a.num, b.num)
    else:
        num, den = mul(a.num, b.den), mul(a.den, b.num)
    return Expr._make(a.vars, num, den, {**a.kernels, **b.kernels})


def _same_value(got, want):
    assert got == want
    assert got.key() == want.key()
    assert str(got) == str(want)
    assert got.kernels == want.kernels


def _identity_operands(rng):
    """Polynomials, rational functions with a non-unit denominator (with
    and without kernels), kernel-bearing polynomials and constants."""
    out = [random_polynomial(rng, VS, degree=3, terms=4) for _ in range(8)]
    out += [random_polynomial(rng, VS, degree=3, terms=4, kernels=True)
            for _ in range(8)]
    while len(out) < 24:
        den = random_polynomial(rng, VS, degree=2, terms=3)
        if den.as_rational() is None:
            out.append(random_polynomial(rng, VS, degree=2, terms=3) / den)
    out += _random_quotients(rng, 8)
    out += [Expr.rational(VS, c) for c in (-1, Fraction(1, 2), 2)]
    out += [E("exp(x1)"), E("sin(x2)/(x3 + 1)")]
    return out


def _zeros():
    return [Expr.zero(VS), Expr.rational(VS, 0),
            Expr.rational(VS, Fraction(0)), E("0"), E("x1 - x1")]


def _ones():
    return [Expr.one(VS), Expr.rational(VS, 1), E("x1/x1"), E("1"),
            Expr.rational(VS, Fraction(2, 2)), E("exp(0)")]


class TestIdentityArithmetic:
    """x + 0, 0 + x, x - 0, x*1, 1*x, x*0, 0*x, x/1 and
    exact_quotient(x, 1) return the operand that already is the result."""

    def test_constants_are_shared_per_space(self):
        assert Expr.zero(VS) is Expr.zero(VS)
        assert Expr.one(VS) is Expr.one(VS)
        for z in _zeros():
            assert z is Expr.zero(VS)
        for u in _ones():
            assert u == Expr.one(VS)
        assert Expr.rational(VS, 1) is Expr.one(VS)
        assert Expr.rational(VS, Fraction(2, 2)) is Expr.one(VS)
        other = VariableSpace.canonical(7, 2)
        assert Expr.zero(other) is not Expr.zero(VS)
        assert Expr.zero(other) == Expr.zero(VS)

    def test_identities_match_the_general_route(self):
        rng = random.Random(91)
        for x in _identity_operands(rng):
            for z in _zeros():
                for got, want in [(x + z, _general("+", x, z)),
                                  (z + x, _general("+", z, x)),
                                  (x - z, _general("-", x, z)),
                                  (x * z, _general("*", x, z)),
                                  (z * x, _general("*", z, x))]:
                    _same_value(got, want)
                assert x + z is x and z + x is x and x - z is x
                assert x * z is z and z * x is z
            for u in _ones():
                for got, want in [(x * u, _general("*", x, u)),
                                  (u * x, _general("*", u, x)),
                                  (x / u, _general("/", x, u))]:
                    _same_value(got, want)
                assert x * u is x and u * x is x and x / u is x
                if x.is_polynomial():
                    _same_value(exact_quotient(x, u), _general("/", x, u))
                    assert exact_quotient(x, u) is x
            assert x + 0 is x and 0 + x is x and x - 0 is x
            assert x * 1 is x and 1 * x is x and x / 1 is x

    def test_non_identity_constants_take_the_general_route(self):
        rng = random.Random(92)
        for x in _identity_operands(rng):
            for c in (-1, Fraction(1, 2), 2):
                k = Expr.rational(VS, c)
                for op, got in [("+", x + k), ("-", x - k), ("*", x * k),
                                ("/", x / k)]:
                    _same_value(got, _general(op, x, k))
                _same_value(k - x, _general("-", k, x))
            _same_value(0 - x, _general("-", Expr.zero(VS), x))

    def test_zero_results_are_the_shared_zero(self):
        x = E("x1*exp(x2) + x3/(x4 - 1)")
        assert x - x is Expr.zero(VS)
        assert x * 0 is Expr.zero(VS)
        assert exact_quotient(Expr.zero(VS), E("x1")) is Expr.zero(VS)

    def test_division_by_zero_still_raises(self):
        with pytest.raises(DomainError):
            E("x1") / Expr.zero(VS)
        with pytest.raises(DomainError):
            Expr.zero(VS) / Expr.zero(VS)

    def test_equal_spaces_mix_and_different_names_raise(self):
        twin = VariableSpace.canonical(7, 2)
        assert twin is not VS and twin == VS
        x, y = E("x1^2 + exp(x2)"), parse_expr("x3 - x1", twin)
        assert x + y == E("x1^2 + exp(x2) + x3 - x1")
        assert x * y == E("(x1^2 + exp(x2))*(x3 - x1)")
        assert x * Expr.one(twin) is x and x + Expr.zero(twin) is x
        assert Expr.zero(twin) + x is x and Expr.one(twin) * x is x
        other = VariableSpace.canonical(3, 1)
        for z in (Expr.zero(other), Expr.one(other),
                  parse_expr("x1", other)):
            for op in (lambda a, b: a + b, lambda a, b: a - b,
                       lambda a, b: a * b, lambda a, b: a / b):
                with pytest.raises(ValueError):
                    op(x, z)
                with pytest.raises(ValueError):
                    op(z, x)


# -- substitution against Expr arithmetic ------------------------------------

SVS = VariableSpace.canonical(3, 1)
SE = lambda s: parse_expr(s, SVS)


def _reference_substitute(e, by_index):
    """Term by term in Expr arithmetic: each factor replaced by its value,
    a kernel by the kernel of its substituted argument."""
    def poly(p):
        out = Expr.zero(SVS)
        for c, factors in p.terms():
            term = Expr.rational(SVS, c)
            for base, k in factors:
                kernel = base.as_kernel()
                if kernel is not None:
                    kind, arg = kernel
                    base = Expr.kernel(kind,
                                       _reference_substitute(arg, by_index))
                else:
                    (i,) = base.free_variables()
                    base = by_index.get(i, base)
                term = term * base ** k
            out = out + term
        return out
    return poly(e.numerator()) / poly(e.denominator())


def _random_value(rng, kind):
    if kind == "zero":
        return Expr.zero(SVS)
    if kind == "rational":
        return Expr.rational(SVS, random_rational(rng))
    p = random_polynomial(rng, SVS, terms=2, kernels=rng.random() < 0.3)
    if kind == "rational function":
        q = random_polynomial(rng, SVS, terms=2)
        if not q.is_structural_zero():
            p = p / q
    return p


def _substitution_cases(seed, count):
    """Seeded (expression, bindings) pairs: rational functions with
    kernels, bound to zero, rationals, polynomials and rational
    functions."""
    rng = random.Random(seed)
    kinds = ("zero", "rational", "polynomial", "rational function")
    out = []
    while len(out) < count:
        e = random_polynomial(rng, SVS, terms=4, kernels=True)
        d = random_polynomial(rng, SVS, terms=2, kernels=rng.random() < 0.3)
        if rng.random() < 0.6 and not d.is_structural_zero():
            e = e / d
        names = rng.sample(range(SVS.total), rng.randint(1, 3))
        out.append((e, {i: _random_value(rng, rng.choice(kinds))
                        for i in names}))
    return out


def _outcome(f):
    try:
        return f()
    except DomainError as exc:
        return type(exc)


class TestSubstituteDifferential:
    def test_against_expr_arithmetic(self):
        raised = 0
        for e, bindings in _substitution_cases(23, 200):
            got = _outcome(lambda: substitute(e, bindings))
            want = _outcome(lambda: _reference_substitute(e, bindings))
            if got is DomainError:
                raised += 1
                assert want is DomainError
                continue
            assert got == want
            assert str(got) == str(want)
        assert raised < 20

    def test_kernel_argument_values(self):
        e = SE("x1*sin(x2 + x3) + exp(x1)/(x2 + 1)")
        for bindings in ({"x2": 0, "x3": 0}, {"x1": 0},
                         {"x2": SE("x3/(x1 + 2)")}, {"x3": SE("-x2")}):
            assert substitute(e, bindings) == _reference_substitute(
                e, {SVS.index(k): v if isinstance(v, Expr)
                    else Expr.rational(SVS, v)
                    for k, v in bindings.items()})
        assert substitute(e, {"x2": 0, "x3": 0}) == SE("exp(x1)")
        assert substitute(SE("sin(x1)"), {"x1": SE("x2 - x2")}).is_structural_zero()

    def test_zero_denominator_raises(self):
        with pytest.raises(DomainError):
            substitute(SE("x2/(x1 - 1)"), {"x1": 1})
        with pytest.raises(DomainError):
            substitute(SE("1/(x1 + x2)"), {"x1": SE("-x2")})

    def test_field_overflow_raises(self):
        big = SE("x2")
        for _ in range(14):
            big = big * big                      # x2^16384
        with pytest.raises(DomainError):
            substitute(SE("x1^2 + 1"), {"x1": big})
        with pytest.raises(DomainError):
            substitute(SE("1/(x1^3 + x3)"), {"x1": big})

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        names = {nm: sympy.Symbol(nm) for nm in SVS.names}
        names.update(exp=sympy.exp, sin=sympy.sin, cos=sympy.cos,
                     ln=sympy.log)
        S = lambda e: sympy.sympify(str(e).replace("^", "**"), locals=names)
        checked = 0
        for e, bindings in _substitution_cases(29, 60):
            got = _outcome(lambda: substitute(e, bindings))
            if got is DomainError:
                continue
            want = S(e).subs({names[SVS.names[i]]: S(v)
                              for i, v in bindings.items()},
                             simultaneous=True)
            assert sympy.cancel(S(got) - want) == 0
            checked += 1
        assert checked > 40


class TestFloatAt:
    """float_at divides a kernel-free value at a rational point as
    integers; it must give float(e.eval(p)), with the same sign of zero,
    and the same DomainError where the value is beyond float range."""

    def _points(self, rng):
        pts = TestIntegerEval()._points(rng)
        pts += [Point(VS, [rng.randint(-4, 4) for _ in range(VS.total)])
                for _ in range(3)]
        return pts

    def _exprs(self, rng):
        exprs = [E("0"), E("x1 - x1"), E("-7/3"), E("x2/(x1 - 9)"),
                 E("-x3/(x2 - 5)"), E("(x1 - x2)/(x3 - 7)"),
                 E("-1/(x1^3*x2^3 - 100)")]
        for _ in range(40):
            e = random_polynomial(rng, VS, degree=3, terms=5)
            if rng.random() < 0.6:
                e = e / random_polynomial(rng, VS, degree=2, terms=3)
            exprs.append(e)
        return exprs

    @staticmethod
    def _same(got, want):
        return got == want and math.copysign(1, got) == math.copysign(1,
                                                                       want)

    def test_seeded_values(self):
        rng = random.Random(47)
        points = self._points(rng)
        negative = zeros = 0
        for e in self._exprs(rng):
            for p in points:
                try:
                    want = float(e.eval(p))
                except DomainError:
                    with pytest.raises(DomainError):
                        expr.float_at(e, p)
                    continue
                assert self._same(expr.float_at(e, p), want), (e, p)
                negative += _fraction_eval(e.den, p) < 0
                zeros += want == 0
        assert negative > 0 and zeros > 0

    def test_negative_denominators_and_zero(self):
        p = X0.replace(x1=Fraction(1, 3), x2=0)
        for text, want in [("x2/(x1 - 9)", 0.0), ("-x2/(x1 - 9)", 0.0),
                           ("1/(x1 - 9)", 1 / (Fraction(1, 3) - 9)),
                           ("-x1/(x2 - 5)", Fraction(1, 15))]:
            got = expr.float_at(E(text), p)
            assert self._same(got, float(want)), text

    def test_beyond_float_range(self):
        big = X0.replace(x1=Fraction(1000, 3))
        for text in ["x1^130", "x1^130/(x1 - 1)",
                     "-x1^131/(x2 + 3)"]:
            e = E(text)
            with pytest.raises(OverflowError):
                float(e.eval(big))
            with pytest.raises(DomainError, match=(
                    "^the value of '.*' at a point is beyond float range$")):
                expr.float_at(e, big)

    def test_underflow_keeps_its_sign(self):
        big = X0.replace(x1=Fraction(1000, 3))
        for text in ["1/x1^130", "-1/x1^130", "1/(3 - x1^130)"]:
            e = E(text)
            assert self._same(expr.float_at(e, big), float(e.eval(big)))
