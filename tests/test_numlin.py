"""The rank policy: exact rank and rational nullspace over Q, float null
basis and span tests."""

import random
from fractions import Fraction

import numpy as np
import pytest

import tflkit.numlin as numlin


def _random_rational_matrix(rng, rows, cols, rank):
    """rows x cols matrix of rationals with the given rank (a product of
    random factors), with some rows zeroed afterwards."""
    if rank == 0:
        m = [[Fraction(0)] * cols for _ in range(rows)]
    else:
        a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(rank)] for _ in range(rows)]
        b = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(cols)] for _ in range(rank)]
        m = [[sum((x * y for x, y in zip(row, col)), Fraction(0))
              for col in zip(*b)] for row in a]
    for i in range(rows):
        if rng.random() < 0.2:
            m[i] = [Fraction(0)] * cols
    return m


def _cases(seed, count=120):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        yield _random_rational_matrix(rng, rows, cols,
                                      rng.randint(0, min(rows, cols)))


class TestExactAgainstSympy:
    def test_exact_rank(self):
        sympy = pytest.importorskip("sympy")
        for m in _cases(11):
            assert numlin.exact_rank(m) == sympy.Matrix(m).rank()

    def test_rational_nullspace(self):
        sympy = pytest.importorskip("sympy")
        for m in _cases(13):
            ncols = len(m[0])
            got = numlin.rational_nullspace(m, ncols)
            want = sympy.Matrix(m).nullspace()
            assert len(got) == len(want)
            # sympy's basis has the same normalization (1 in its own free
            # column, 0 in the other free columns), so it is the same basis
            for g, w in zip(got, want):
                assert [sympy.Rational(x.numerator, x.denominator)
                        for x in g] == list(w)
                assert all(isinstance(x, Fraction) for x in g)

    def test_zero_and_empty(self):
        assert numlin.exact_rank([]) == 0
        assert numlin.exact_rank([[Fraction(0)] * 3] * 2) == 0
        basis = numlin.rational_nullspace([[Fraction(0)] * 3], 3)
        assert basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestFloatPolicy:
    def test_null_basis_spans_kernel(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 5)) @ rng.standard_normal((5, 5))
        null = numlin.null_basis(np.vstack([a, a[0] + a[1]]))
        assert null.shape == (3, 5)
        assert np.allclose(a @ null.T, 0.0)

    def test_extends_span(self):
        rows = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        assert numlin.extends_span(rows, np.array([0.0, 0.0, 2.0]))
        assert not numlin.extends_span(rows, np.array([3.0, -1.0, 0.0]))
        assert numlin.extends_span([], np.array([0.0, 1.0, 0.0]))
        assert not numlin.extends_span([], np.zeros(3))
