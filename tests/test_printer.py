"""The printer reads each monomial from its packed fields; it must print
every expression as the printer that decoded monomials through
`_mono_pairs` did (tests/_old_printer.py).  Stdlib only, so these run with
sympy blocked as well."""

import random
from fractions import Fraction

import pytest

from tflkit.expr import Expr, VariableSpace, _p_leading
from tflkit.problem import (cmd_check, cmd_solve, dumps_report, load_problem,
                            loads_problem)
from _old_printer import old_poly_str, old_str
from check_chain_digests import chain_text
from test_kept_rows import CHAIN8
from test_pfaffian import PROBLEMS
from test_problem_cli import UNICYCLE

KINDS = ("exp", "sin", "cos", "ln")


@pytest.fixture
def compared(monkeypatch):
    """Every polynomial printed while the fixture is active, as (new text,
    old text); kernel arguments are printed through the same method."""
    seen = []
    new = Expr._poly_str

    def spy(self, poly, lc):
        text = new(self, poly, lc)
        seen.append((text, old_poly_str(self, poly, lc)))
        return text

    monkeypatch.setattr(Expr, "_poly_str", spy)
    return seen


def _problems():
    out = [(path.stem, lambda path=path: load_problem(path))
           for path in sorted(PROBLEMS.glob("*.tfl"))]
    out += [(name, lambda coeffs=coeffs: loads_problem(chain_text(coeffs)))
            for name, coeffs in CHAIN8.items()]
    out.append(("unicycle", lambda: loads_problem(UNICYCLE)))
    return out


def _rational(rng):
    q = rng.randint(1, 5)
    p = 0
    while not p:
        p = rng.randint(-9 * q, 9 * q)
    return Fraction(p, q)


def _polynomial(rng, vs, atoms, terms, exponent, kernels):
    """A sum of `terms` monomials with rational coefficients, up to four of
    the variables `atoms` each raised to at most `exponent`, and with
    `kernels` a kernel power on some of them; one term in four is a
    constant."""
    out = Expr.zero(vs)
    for _ in range(terms):
        term = Expr.rational(vs, _rational(rng))
        if rng.random() < 0.75:
            for _ in range(rng.randint(1, 4)):
                x = Expr.var_index(vs, rng.choice(atoms))
                term = term * x ** rng.randint(1, exponent)
        if kernels and rng.random() < 0.3:
            arg = _polynomial(rng, vs, atoms, rng.randint(1, 2), 2, False)
            if arg.as_rational() is None:
                term = term * Expr.kernel(rng.choice(KINDS), arg) ** (
                    rng.randint(1, 3))
        out = out + term
    return out


def _random_expr(rng):
    """A polynomial over 3 to 14 variables, or one divided by a polynomial
    of at most two of them with small exponents, which keeps the gcd of
    numerator and denominator cheap."""
    vs = VariableSpace.canonical(rng.randint(1, 12), 1)
    everything = range(vs.total)
    kernels = rng.random() < 0.5
    e = _polynomial(rng, vs, everything, rng.randint(1, 6), 40, kernels)
    if rng.random() < 0.4:
        few = rng.sample(everything, 2)
        den = _polynomial(rng, vs, few, rng.randint(1, 3), 4, kernels)
        if not den.is_structural_zero():
            # a leading denominator other than 1
            e = e / (den * Expr.rational(
                vs, rng.choice((2, 3, Fraction(5, 7)))))
    return e


class TestPrinter:
    @pytest.mark.parametrize("name, make", _problems(),
                             ids=[name for name, _ in _problems()])
    def test_reports(self, compared, name, make):
        for command in (cmd_check, cmd_solve):
            _, tree, _ = command(make())
            dumps_report(tree)
        assert compared
        assert [new for new, _ in compared] == [old for _, old in compared]

    def test_random_expressions(self, compared):
        rng = random.Random(30)
        exprs = [_random_expr(rng) for _ in range(300)]
        assert [str(e) for e in exprs] == [old_str(e) for e in exprs]
        assert [new for new, _ in compared] == [old for _, old in compared]
        # the draw holds what the printer must handle
        assert sum(not e.is_polynomial() for e in exprs) > 50
        assert sum(e.den[_p_leading(e.den)] != 1 for e in exprs) > 50
        assert sum(e.has_kernels() for e in exprs) > 50
        assert any("^40" in str(e) for e in exprs)
        assert any(str(e).startswith("-") for e in exprs)
        assert any(e.as_rational() is not None for e in exprs)
        assert any(e.vars.total == 14 for e in exprs)
        assert any(e.vars.total == 3 for e in exprs)

    def test_zero_and_constants(self):
        vs = VariableSpace.canonical(2, 1)
        for c in (0, 1, -1, Fraction(-7, 3), Fraction(5, 2)):
            e = Expr.rational(vs, c)
            assert str(e) == old_str(e)
