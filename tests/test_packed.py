"""Packed monomials of expr's integer polynomials, against a tuple-form
reference written here: products, exact division, gcd cofactors and the
grlex order, with and without kernel atoms, against sympy where it is
installed, and exponents past the width of a field."""

import functools
import random
from pathlib import Path

import pytest

import tflkit.expr as expr
from tflkit.cli import main as cli_main
from tflkit.errors import DomainError
from tflkit.expr import VariableSpace, parse_expr
from conftest import decode, encode

VS = VariableSpace.canonical(4, 2)
E = lambda s: parse_expr(s, VS)


def _atom(text):
    (pairs,) = decode(E(text).num)
    return pairs[0][0]


VAR_ATOMS = [_atom(nm) for nm in VS.names]
KERNEL_ATOMS = [_atom(s) for s in ("sin(x1)", "cos(x1)", "exp(x2 - u1)")]
ATOMS = VAR_ATOMS + KERNEL_ATOMS


# -- the tuple-form reference -------------------------------------------------

def _ref_mono_mul(a, b):
    exps = dict(a)
    for atom, e in b:
        exps[atom] = exps.get(atom, 0) + e
    return tuple(sorted(exps.items()))


def _ref_mul(A, B):
    out = {}
    for ma, ca in A.items():
        for mb, cb in B.items():
            m = _ref_mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ref_greater(m1, m2):
    """Graded lexicographic order: total degree, then the first atom whose
    exponents differ decides, the larger exponent winning."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return d1 > d2
    e1, e2 = dict(m1), dict(m2)
    for atom in sorted(set(e1) | set(e2)):
        if e1.get(atom, 0) != e2.get(atom, 0):
            return e1.get(atom, 0) > e2.get(atom, 0)
    return False


def _ref_poly(rng, atoms, terms, degree, box=9):
    P = {}
    while len(P) < terms:
        exps = {}
        for _ in range(rng.randint(0, degree)):
            a = rng.choice(atoms)
            exps[a] = exps.get(a, 0) + 1
        P[tuple(sorted(exps.items()))] = (rng.choice([-1, 1])
                                          * rng.randint(1, box))
    return P


@pytest.fixture(params=["variables", "kernels"])
def atoms(request):
    return VAR_ATOMS if request.param == "variables" else ATOMS


class TestProducts:
    def test_against_the_reference(self, atoms):
        rng = random.Random(41)
        for _ in range(60):
            A, B = (_ref_poly(rng, atoms, rng.randint(1, 6), 4)
                    for _ in range(2))
            product = expr._p_mul(encode(VS, A), encode(VS, B))
            assert decode(product) == _ref_mul(A, B)
            assert product == encode(VS, _ref_mul(A, B))

    def test_powers(self, atoms):
        rng = random.Random(42)
        for _ in range(20):
            A = _ref_poly(rng, atoms, 3, 2)
            power = {(): 1}
            for _ in range(4):
                power = _ref_mul(power, A)
            assert decode(expr._p_pow(encode(VS, A), 4)) == power

    def test_against_sympy(self, atoms):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(f"a0:{len(atoms)}")
        index = {a: i for i, a in enumerate(atoms)}

        def to_sympy(P):
            terms = {}
            for m, c in decode(P).items():
                exps = [0] * len(atoms)
                for a, e in m:
                    exps[index[a]] = e
                terms[tuple(exps)] = c
            return sympy.Poly.from_dict(terms, *gens, domain="ZZ")

        rng = random.Random(43)
        for _ in range(20):
            A, B = (encode(VS, _ref_poly(rng, atoms, 5, 3)) for _ in range(2))
            assert to_sympy(expr._p_mul(A, B)) == to_sympy(A) * to_sympy(B)


class TestOrder:
    def test_integer_order_is_grlex(self, atoms):
        rng = random.Random(44)
        monos = list(_ref_poly(rng, atoms, 80, 4))
        for m1 in monos:
            for m2 in monos:
                p1, p2 = encode(VS, {m1: 1}), encode(VS, {m2: 1})
                (k1,), (k2,) = p1, p2
                assert (k1 > k2) == _ref_greater(m1, m2)
                assert (k1 < k2) == _ref_greater(m2, m1)
                assert (k1 == k2) == (m1 == m2)

    def test_leading_monomial_and_printed_order(self, atoms):
        rng = random.Random(45)
        for _ in range(20):
            P = _ref_poly(rng, atoms, 8, 4)
            ref = sorted(P, key=functools.cmp_to_key(
                lambda a, b: 1 if _ref_greater(a, b) else -1), reverse=True)
            packed = encode(VS, P)
            assert decode({expr._p_leading(packed): 1}) == {ref[0]: 1}
            assert [expr._mono_pairs(m)
                    for m in sorted(packed, reverse=True)] == ref

    def test_kernels_follow_variables(self):
        # the degree comes first; at equal degree every variable outranks
        # every kernel, and kernels keep the order of their atoms
        (x4,), (s,), (c,) = (E(t).num for t in ("x4", "sin(x1)", "cos(x1)"))
        (x1sq,), (s2,) = (E(t).num for t in ("x1^2", "sin(x1)^2"))
        assert x4 > s and x4 > c and s2 > x4
        assert (c > s) == (KERNEL_ATOMS[1] < KERNEL_ATOMS[0])
        assert x1sq > s2


class TestExactDivision:
    def test_round_trip(self, atoms):
        rng = random.Random(46)
        for _ in range(40):
            B = _ref_poly(rng, atoms, rng.randint(1, 5), 3)
            Q = _ref_poly(rng, atoms, rng.randint(1, 6), 3)
            A = _ref_mul(Q, B)
            assert decode(expr._ip_divexact(encode(VS, A),
                                            encode(VS, B))) == Q

    def test_monomial_division_needs_every_field(self):
        (x1x3,), (x2,), (x3,) = (E(t).num for t in ("x1*x3", "x2", "x3"))
        (s,), (c,), (sx,) = (E(t).num for t in ("sin(x1)", "cos(x1)",
                                                "x1*sin(x1)^2"))
        assert expr._mono_divides(x2, x1x3) is None      # a borrow
        assert expr._mono_divides(x1x3, x3) is None      # a lower degree
        assert expr._mono_divides(x3, x1x3) == next(iter(E("x1").num))
        assert expr._mono_divides(c, sx) is None
        assert expr._mono_divides(s, x3) is None
        assert decode({expr._mono_divides(s, sx): 1}) \
            == decode(E("x1*sin(x1)").num)
        assert decode({expr._mono_divides(sx, sx): 1}) == {(): 1}

    def test_not_divisible(self, atoms):
        rng = random.Random(47)
        for _ in range(40):
            B = _ref_poly(rng, atoms, rng.randint(2, 4), 3)
            A = _ref_mul(_ref_poly(rng, atoms, 3, 2), B)
            A[((VAR_ATOMS[2], 5),)] = A.get(((VAR_ATOMS[2], 5),), 0) + 1
            assert expr._ip_divexact(encode(VS, A), encode(VS, B)) is None


def _planted_cofactors(atoms, seed, count=20):
    """(A, B, (g, A/g, B/g)) for products A = G*F1, B = G*F2, the cofactors
    decoded."""
    rng = random.Random(seed)
    for _ in range(count):
        G, F1, F2 = (_ref_poly(rng, atoms, 3, 2) for _ in range(3))
        A, B = _ref_mul(G, F1), _ref_mul(G, F2)
        yield A, B, tuple(decode(P) for P in expr._ip_cofactors(
            encode(VS, A), encode(VS, B)))


class TestCofactors:
    def test_planted_factor(self, atoms):
        for A, B, (g, qa, qb) in _planted_cofactors(atoms, 48):
            assert _ref_mul(g, qa) == A and _ref_mul(g, qb) == B
            lead = max(g, key=functools.cmp_to_key(
                lambda a, b: 1 if _ref_greater(a, b) else -1))
            assert g[lead] > 0

    def test_gcd_against_sympy(self, atoms):
        sympy = pytest.importorskip("sympy")
        gens = sympy.symbols(f"a0:{len(atoms)}")

        def to_sympy(P):
            return sympy.Poly.from_dict(
                {tuple(dict(m).get(a, 0) for a in atoms): c
                 for m, c in P.items()}, *gens, domain="ZZ")

        for A, B, (g, _, _) in _planted_cofactors(atoms, 48):
            expected = to_sympy(A).gcd(to_sympy(B))
            if expected.LC(order="grlex") < 0:
                expected = -expected
            assert to_sympy(g) == expected


class TestFieldOverflow:
    """An exponent or a total degree past 2**15 - 1 raises DomainError; it
    never carries into the next field."""

    def test_exponent_past_the_field(self):
        top = E("x1^32767")
        assert decode(top.num) == {((VAR_ATOMS[3], 32767),): 1}
        assert decode(top.diff("x1").num) == {((VAR_ATOMS[3], 32766),): 32767}
        for text in ("x1^32767*x1", "x1^70000*x1", "x1^70000",
                     "x1^20000*x2^20000", "sin(x1)^40000",
                     "x1^20000*exp(x2)^20000", "(x2 + 1)/x1^40000",
                     "(x1 + x2 + 1)^40000", "(x1 + sin(x2))^33000"):
            with pytest.raises(DomainError):
                E(text)

    def test_just_inside_the_field(self):
        e = E("x1^30000") * E("x2^2767")
        assert decode(e.num) == {((VAR_ATOMS[3], 30000),
                                  (VAR_ATOMS[4], 2767)): 1}
        assert str(E("x1^32767/x1^32766")) == "x1"

    def test_interpolation_past_the_field(self):
        # a coefficient with more digits than a field holds exponents
        (x1,) = E("x1").num
        with pytest.raises(DomainError):
            expr._ip_interpolate({0: 2 ** 40000}, x1, 2)
        assert decode(expr._ip_interpolate({0: 5}, x1, 2)) \
            == {(): 1, ((VAR_ATOMS[3], 2),): 1}

    def test_variable_count_fits_the_layout(self):
        VariableSpace([f"x{i}" for i in range(1, 4095)], [])
        with pytest.raises(ValueError):
            VariableSpace([f"x{i}" for i in range(1, 4096)], [])

    def test_cli_reports_an_error(self, tmp_path, capsys):
        tfl = tmp_path / "big.tfl"
        tfl.write_text((Path(__file__).resolve().parent.parent / "problems"
                        / "double-integrator.tfl").read_text().replace(
                            "f = x2, 0", "f = x2, x1^70000*x1"))
        assert "x1^70000*x1" in tfl.read_text()
        assert cli_main(["solve", str(tfl)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "32767" in err
        assert "Traceback" not in err
