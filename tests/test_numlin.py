"""The rank policy: exact rank and rational nullspace over Q, float null
basis and span tests."""

import random
from fractions import Fraction

import numpy as np
import pytest

import tflkit.numlin as numlin
import _fraction_echelon as reference


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


def _ansatz_like(rng):
    """A sparse matrix shaped like the closed-combination ansatz: 80-160
    rows over 66 columns, each row holding 1-3 small nonzeros inside one
    block of 1-3 columns, in shuffled order.  About half the blocks of two
    or three columns carry a hidden kernel vector that all their rows
    annihilate, so the nullspace has basis vectors with several nonzeros;
    integral entries are `int` about half the time."""
    cols = list(range(66))
    rng.shuffle(cols)
    blocks = []
    while cols:
        size = min(rng.randint(1, 3), len(cols))
        blocks.append((cols[:size], rng.random() < 0.5 and size > 1))
        cols = cols[size:]
    rows = []
    target = rng.randint(80, 160)
    while len(rows) < target:
        block, has_kernel = rng.choice(blocks)
        support = rng.sample(block, rng.randint(1, len(block)))
        vals = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                         rng.randint(1, 3)) for _ in support]
        if has_kernel:
            if len(support) == 1:
                continue
            # the hidden kernel vector is 1, 2, 3 on the block's columns
            weight = {c: k + 1 for k, c in enumerate(block)}
            vals[-1] = -sum((v * weight[c] for v, c in
                             zip(vals[:-1], support)), Fraction(0)) \
                / weight[support[-1]]
            if not vals[-1]:
                continue
        row = [0] * 66
        for c, v in zip(support, vals):
            row[c] = (int(v) if v.denominator == 1 and rng.random() < 0.5
                      else v)
        rows.append(row)
    return rows


class TestSparseAnsatzShapes:
    """`numlin`'s exact elimination works on sparse rows; these matrices
    are as large and as sparse as the ones `integrate` hands it."""

    def test_exact_rank(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(17)
        for _ in range(4):
            m = _ansatz_like(rng)
            assert numlin.exact_rank(m) == sympy.Matrix(m).rank()

    def test_rational_nullspace(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(19)
        supports = []
        for _ in range(4):
            m = _ansatz_like(rng)
            got = numlin.rational_nullspace(m, 66)
            want = sympy.Matrix(m).nullspace()
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert all(isinstance(x, Fraction) for x in g)
                assert [sympy.Rational(x.numerator, x.denominator)
                        for x in g] == list(w)
            supports.append(max((sum(1 for x in g if x) for g in got),
                            default=0))
        # some basis vectors combine several columns
        assert max(supports) >= 3


def _as_dict_rows(rng, m):
    """The rows of m as sparse {column: value} dicts, in a shuffled
    insertion order."""
    out = []
    for row in m:
        items = [(c, x) for c, x in enumerate(row) if x]
        rng.shuffle(items)
        out.append(dict(items))
    return out


def _with_ints(rng, m):
    """m with each integral entry an int about half the time."""
    return [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x
             for x in row] for row in m]


class TestIntegerCoreAgainstFractionElimination:
    """The integer fraction-free core gives the ranks and the nullspace
    vectors of the `Fraction` elimination it replaced
    (`tests/_fraction_echelon.py`), with no oracle but the standard
    library."""

    @staticmethod
    def _agree(m, ncols):
        assert numlin.exact_rank(m) == reference.exact_rank(m)
        got = numlin.rational_nullspace(m, ncols)
        assert got == reference.rational_nullspace(m, ncols)
        assert all(isinstance(x, Fraction) for vec in got for x in vec)
        return got

    def test_small_rational_matrices(self):
        rng = random.Random(29)
        deficient = 0
        for m in _cases(31, count=200):
            ncols = len(m[0])
            deficient += reference.exact_rank(m) < min(len(m), ncols)
            for rows in (m, _with_ints(rng, m), _as_dict_rows(rng, m)):
                self._agree(rows, ncols)
        assert deficient >= 50

    def test_ansatz_shapes(self):
        rng = random.Random(37)
        for _ in range(6):
            m = _ansatz_like(rng)
            m += [[0] * 66 for _ in range(3)]
            rng.shuffle(m)
            for rows in (m, _as_dict_rows(rng, m)):
                null = self._agree(rows, 66)
                assert null and len(null) < 66

    def test_wide_dense_rows_of_deficient_rank(self):
        rng = random.Random(41)
        for _ in range(8):
            cols = rng.randint(20, 66)
            m = _random_rational_matrix(rng, rng.randint(5, 30), cols,
                                        rng.randint(1, 8))
            self._agree(_with_ints(rng, m), cols)

    def test_extra_free_columns_and_no_rows(self):
        m = [[Fraction(1, 2), 0, 3], [0, 0, 0], [1, 0, 6]]
        self._agree(m, 5)
        self._agree([], 3)
        self._agree([{}], 2)


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


class TestExtendBasis:
    def test_skips_a_dependent_row(self):
        rows = [np.array([1.0, 0.0, 0.0])]
        cands = [np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                 np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 3.0])]
        assert numlin.extend_basis(rows, cands) == [1, 3]
        assert len(rows) == 3
        assert rows[1] is cands[1] and rows[2] is cands[3]

    def test_stops_at_the_limit(self):
        rows = []
        cands = [np.eye(4)[i] for i in range(4)]
        assert numlin.extend_basis(rows, cands, limit=2) == [0, 1]
        assert len(rows) == 2
        assert numlin.extend_basis(rows, cands, limit=2) == []

    def test_reads_no_candidate_after_the_limit(self):
        read = []

        def candidates():
            for i in range(3):
                read.append(i)
                yield np.eye(3)[i]
            raise AssertionError("candidate read after the limit")

        rows = [np.array([1.0, 0.0, 0.0])]
        assert numlin.extend_basis(rows, candidates(), limit=2) == [1]
        assert read == [0, 1]
        full = [np.eye(3)[i] for i in range(3)]
        assert numlin.extend_basis(full, candidates(), limit=3) == []
        assert read == [0, 1]


def _integer_pair(rng):
    """(A, B): integer matrices over one column count whose row spaces
    share `common` random directions, each with its own extra directions,
    some rows zeroed, and either side possibly one row or all zero."""
    cols = rng.randint(1, 7)

    def direction():
        return [rng.randint(-3, 3) for _ in range(cols)]

    common = [direction() for _ in range(rng.randint(0, 2))]

    def side():
        basis = common + [direction()
                          for _ in range(rng.randint(not common, 3))]
        rows = rng.choice((1, 1, 2, 3, 4, 6))
        if rng.random() < 0.1:
            return [[0] * cols for _ in range(rows)]
        out = []
        for _ in range(rows):
            coef = [rng.randint(-2, 2) for _ in basis]
            out.append([sum(c * b[j] for c, b in zip(coef, basis))
                        for j in range(cols)])
            if rng.random() < 0.1:
                out[-1] = [0] * cols
        return out

    return side(), side()


class TestIntersectionDim:
    def test_equals_the_rank_formula(self):
        rng = random.Random(23)
        for _ in range(300):
            a, b = _integer_pair(rng)
            expect = (numlin.rank(a) + numlin.rank(b)
                      - numlin.rank(np.vstack([a, b])))
            assert numlin.intersection_dim(a, b) == expect

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(29)
        for _ in range(150):
            a, b = _integer_pair(rng)
            ma, mb = sympy.Matrix(a), sympy.Matrix(b)
            expect = (ma.rank() + mb.rank()
                      - sympy.Matrix.vstack(ma, mb).rank())
            assert numlin.intersection_dim(a, b) == expect

    def test_known_cases(self):
        e = np.eye(4)
        assert numlin.intersection_dim(e[:2], e[1:3]) == 1
        assert numlin.intersection_dim(e[:1], e) == 1
        assert numlin.intersection_dim(e[:2], e[2:]) == 0
        assert numlin.intersection_dim(np.zeros((3, 4)), e) == 0
        assert numlin.intersection_dim(np.vstack([e[:2], np.zeros(4)]),
                                       e[:1] + e[1:2]) == 1
        assert numlin.intersection_dim(np.zeros((0, 4)), e) == 0
        # each matrix keeps its own cut: 1e-6 is above A's cut, not [A; B]'s
        assert numlin.intersection_dim([[1e-6, 0.0]], [[1e6, 0.0]]) == 1

    def test_one_svd_call(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: calls.append(1) or svd(*a, **k))
        rng = random.Random(31)
        for _ in range(20):
            numlin.intersection_dim(*_integer_pair(rng))
        assert len(calls) == 20
