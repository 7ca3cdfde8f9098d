"""The package's one rank policy, for pointwise linear algebra.

Exact over Q where every entry is rational: a matrix of rationals is
reduced by one forward Gauss elimination over sparse rows
(`_fraction_echelon`), which gives both `exact_rank` and
`rational_nullspace`, and no tolerance is involved.

Float otherwise: singular values below RANK_TOL times max(largest singular
value, 1) are treated as zero (`_sv_cut`).  `rank`, `null_basis`,
`extends_span` and `intersection_dim` all decide rank that way, and they
are the only place in the package that takes an SVD: one SVD call per
intersection, whose three ranks are cut per matrix.  `extend_basis` is
the package's one keep-if-independent step.
"""

from fractions import Fraction

import numpy as np

RANK_TOL = 1e-9

__all__ = [
    "RANK_TOL",
    "rank",
    "null_basis",
    "extends_span",
    "extend_basis",
    "exact_rank",
    "rational_nullspace",
    "intersection_dim",
]


def _sv_cut(s):
    if len(s) == 0:
        return 0.0
    return RANK_TOL * max(s[0], 1.0)


def rank(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0 or A.shape[0] == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > _sv_cut(s)))


def null_basis(A):
    """Orthonormal rows spanning {x : A x = 0}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vh = np.linalg.svd(A)
    return vh[int(np.sum(s > _sv_cut(s))):]


def extends_span(rows, row):
    """Does `row` raise the rank of the independent rows `rows`?"""
    return rank(np.vstack(list(rows) + [row])) > len(rows)


def extend_basis(rows, candidates, limit=None):
    """Append to the independent rows `rows` (a list) each candidate row
    that raises their rank, in order, until `rows` holds `limit` rows;
    return the indices of the candidates taken.  `candidates` is read
    lazily, so no candidate is read once the limit is reached."""
    taken = []
    if limit is not None and len(rows) >= limit:
        return taken
    for i, row in enumerate(candidates):
        if extends_span(rows, row):
            rows.append(row)
            taken.append(i)
            if len(rows) == limit:
                break
    return taken


def _fraction_echelon(rows):
    """Forward Gauss elimination over Q on sparse rows {column: Fraction}:
    (echelon rows, pivot columns).  Each column, left to right, takes its
    pivot from the first remaining row that holds it.  Zero rows are
    dropped, and the sweep stops once every row holds a pivot, since the
    columns left are then all free."""
    rows = [{c: Fraction(x) for c, x in enumerate(r) if x} for r in rows]
    rows = [r for r in rows if r]
    ncols = max((max(r) for r in rows), default=-1) + 1
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if col in rows[i]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pv = pr[col]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            if col in row:
                f = row[col] / pv
                for c, b in pr.items():
                    v = row.get(c, 0) - f * b
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def exact_rank(rows):
    """Rank over Q of a matrix of rationals."""
    return len(_fraction_echelon(rows)[1])


def rational_nullspace(rows, ncols):
    """Nullspace basis over Q of a matrix of rationals, deterministic: the
    k-th vector has a 1 in the k-th free column and 0 in the other free
    columns, which fixes it uniquely."""
    echelon, pivots = _fraction_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    zero = Fraction(0)
    basis = []
    for fc in free:
        vec = {fc: Fraction(1)}
        for row, pc in zip(reversed(echelon), reversed(pivots)):
            s = sum((a * vec[c] for c, a in row.items() if c in vec), zero)
            if s:
                vec[pc] = -s / row[pc]
        basis.append([vec.get(c, zero) for c in range(ncols)])
    return basis


def intersection_dim(A, B):
    """dim(rowspace(A) ∩ rowspace(B)) = rank A + rank B − rank [A; B],
    with the three ranks from one SVD call: A and B are zero-padded to the
    shape of [A; B], which only adds zero singular values, and each matrix
    keeps its own cut."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.size == 0 or B.size == 0:
        return 0
    stacked = np.vstack([A, B])
    batch = np.zeros((3,) + stacked.shape)
    batch[0, :len(A)] = A
    batch[1, :len(B)] = B
    batch[2] = stacked
    ra, rb, rab = (int(np.sum(s > _sv_cut(s)))
                   for s in np.linalg.svd(batch, compute_uv=False))
    if ra == 0 or rb == 0:
        return 0
    return ra + rb - rab
