"""Float row echelon forms of pointwise spans, for tests that look at the
rows themselves rather than at a rank."""

import numpy as np

from tflkit.numlin import RANK_TOL


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
    return row_reduce(ideal.at(p))
