"""Float pointwise helpers for tests: an ideal's generators at a point,
row echelon forms of pointwise spans, for tests that look at the rows
themselves rather than at a rank, and the ranks of an adapted map's
differentials at a point."""

import numpy as np

from tflkit import numlin
from tflkit.forms import d_of_function
from tflkit.lift import ann_tangent_L
from tflkit.numlin import RANK_TOL


def ideal_at(ideal, p):
    """The generators of `ideal` at p, one float row each."""
    if not ideal.generators:
        return np.zeros((0, ideal.vars.total))
    return np.array([g.at(p) for g in ideal.generators])


def row_reduce(A):
    """Row echelon basis of the row space, deterministic pivot order
    (leftmost usable column first)."""
    A = np.atleast_2d(np.asarray(A, dtype=float)).copy()
    if A.size == 0:
        return A.reshape(0, A.shape[1] if A.ndim == 2 else 0)
    tol = RANK_TOL * max(np.abs(A).max(), 1.0)
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = None
        best = tol
        for i in range(r, rows):
            if abs(A[i, c]) > best:
                piv = i
                best = abs(A[i, c])
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] / A[r, c]
        for i in range(rows):
            if i != r and abs(A[i, c]) > tol:
                A[i] = A[i] - A[i, c] * A[r]
        r += 1
        if r == rows:
            break
    return A[:r]


def pointwise_span(ideal, p):
    """Row basis of the generators evaluated at p (row-reduced, deterministic
    pivot order)."""
    return row_reduce(ideal_at(ideal, p))


def differentials(F):
    """The differentials of the components of the adapted map F."""
    return [d_of_function(c) for c in F.components]


def rank_at(F, p):
    """Rank of the differentials of the components of the adapted map F
    at p."""
    return numlin.rank(np.array([d.at(p) for d in differentials(F)]))


def restricted_rank_on_L(F, ls):
    """Rank of the Jacobian of the adapted map F restricted to L at p0."""
    # tangent basis of L at p0 = nullspace of the annihilator rows
    tangent = numlin.null_basis(ann_tangent_L(ls, ls.p0))
    rows = np.array([d.at(ls.p0) for d in differentials(F)])
    return numlin.rank(rows @ tangent.T)
