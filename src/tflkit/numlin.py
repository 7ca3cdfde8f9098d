"""The package's one rank policy, for pointwise linear algebra.

Exact over Q where every entry is rational: `exact_rank` and
`rational_nullspace` read one reduced echelon (`_echelon`), built
fraction-free on sparse integer rows.  Each row's denominators are
cleared once, on entry; elimination scales two rows by cofactors of
their pivot entries and divides the result by its content, so no
`Fraction` is formed while eliminating and no tolerance is involved.  The
echelon keeps one row per pivot column, each row's least column its
pivot and no row holding another's pivot column, so the pivots are the
column-rank profile.  The nullspace is read off it directly: the vector
with 1 in a free column fc and 0 in the other free columns has
−row[fc] / row[pc] in each pivot column pc.  It is the only nullspace
vector of that shape, whatever echelon it is read from: two such vectors
differ by a nullspace vector that vanishes on every free column, and the
pivot columns are independent.

Float otherwise: singular values below RANK_TOL times max(largest singular
value, 1) are treated as zero (`_sv_rank`).  `rank`, `null_basis`,
`extends_span` and `intersection_dims` all decide rank that way, and they
are the only place in the package that takes an SVD.  `intersection_dims`
intersects one row space with several in one batched SVD call, each row
scaled to a largest entry of 1 and each rank cut per matrix, and takes
several such groups in the same call: the conditions' point table decides
the dimensions at all of its points, and the rank of each point's
Ann(T_pL), with one call per table.
`intersection_dim` is its one-pair face.  `extend_basis` is the package's
one keep-if-independent step.
"""

import math
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
    "intersection_dims",
    "intersection_dim",
]


def _sv_rank(s):
    """The rank of each matrix whose singular values, in descending order,
    run along the last axis of s."""
    return (s > RANK_TOL * np.maximum(s[..., :1], 1.0)).sum(axis=-1)


def rank(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0 or A.shape[0] == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(_sv_rank(s))


def null_basis(A):
    """Orthonormal rows spanning {x : A x = 0}."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    _, s, vh = np.linalg.svd(A)
    return vh[int(_sv_rank(s)):]


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


def _primitive(row):
    """The integer row {column: int} divided by its content."""
    g = math.gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _eliminate(row, prow, pc):
    """The primitive part of a·row − b·prow, which clears column pc:
    a/b = prow[pc]/row[pc] in lowest terms."""
    g = math.gcd(row[pc], prow[pc])
    a, b = prow[pc] // g, row[pc] // g
    out = {c: a * x for c, x in row.items()}
    for c, x in prow.items():
        v = out.get(c, 0) - b * x
        if v:
            out[c] = v
        else:
            del out[c]
    return _primitive(out)


def _echelon(rows):
    """The reduced echelon of a matrix of rationals, fraction-free over
    the integers: {pivot column: integer row}, where each row's least
    column is its pivot and no row holds another row's pivot column.
    Rows enter one at a time, their denominators cleared by their lcm: a
    row is cleared in the pivot columns it holds, and if anything is left,
    its least column becomes a pivot and is cleared from the rows that
    hold it."""
    echelon = {}
    for r in rows:
        row = {c: x for c, x in (r.items() if isinstance(r, dict)
                                 else enumerate(r)) if x}
        if not row:
            continue
        den = math.lcm(*(x.denominator for x in row.values()))
        row = _primitive({c: x.numerator * (den // x.denominator)
                          for c, x in row.items()})
        for pc in [c for c in row if c in echelon]:
            row = _eliminate(row, echelon[pc], pc)
        if not row:
            continue
        pc = min(row)
        for q, other in echelon.items():
            if pc in other:
                echelon[q] = _eliminate(other, row, pc)
        echelon[pc] = row
    return echelon


def exact_rank(rows):
    """Rank over Q of a matrix of rationals, given as dense lists or as
    sparse {column: value} dicts; dict columns need only be comparable."""
    return len(_echelon(rows))


def rational_nullspace(rows, ncols):
    """Nullspace basis over Q of a matrix of rationals (dense lists or
    sparse {column: value} dicts over columns 0 .. ncols − 1),
    deterministic: the k-th vector has a 1 in the k-th free column and 0
    in the other free columns, which fixes it uniquely.  Each is read off
    the reduced echelon: its entry in a pivot column pc is
    −row[fc] / row[pc] for that column's row."""
    echelon = _echelon(rows)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for fc in range(ncols):
        if fc in echelon:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for pc, row in echelon.items():
            if fc in row:
                vec[pc] = Fraction(-row[fc], row[pc])
        basis.append(vec)
    return basis


def intersection_dims(A, Bs):
    """rank A, and dim(rowspace(A) ∩ rowspace(B)) = rank A + rank B −
    rank [A; B] for each B in `Bs`, all from one SVD call.  For several
    groups at once, A maps keys to matrices and Bs maps the same keys to
    lists of matrices; the result maps each key to its (rank A, dims),
    still from one call.  The batch holds, group by group, A, then each B
    and each [A; B], each row scaled to a largest entry of 1 in absolute
    value and zero-padded to one shape, which only adds zero singular
    values; each matrix keeps its own cut.  An empty matrix has no
    rows."""
    if not isinstance(A, dict):
        return _group_dims([(A, Bs)])[0]
    return dict(zip(A, _group_dims([(A[k], Bs[k]) for k in A])))


def _group_dims(groups):
    """(rank A, [dim(A ∩ B) for B in Bs]) for each (A, Bs) of `groups`,
    from one SVD call."""
    groups = [(_float_rows(A), [_float_rows(B) for B in Bs])
              for A, Bs in groups]
    cols = max(M.shape[1] for A, Bs in groups for M in [A, *Bs])
    rows = max(len(A) + max((len(B) for B in Bs), default=0)
               for A, Bs in groups)
    batch = np.zeros((sum(1 + 2 * len(Bs) for _, Bs in groups), rows, cols))
    k = 0
    for A, Bs in groups:
        batch[k, :len(A), :A.shape[1]] = A
        for j, B in enumerate(Bs):
            batch[k + 1 + 2 * j, :len(B), :B.shape[1]] = B
            batch[k + 2 + 2 * j, :len(A), :A.shape[1]] = A
            batch[k + 2 + 2 * j, len(A):len(A) + len(B), :B.shape[1]] = B
        k += 1 + 2 * len(Bs)
    # scaling keeps each row space, and puts a small row beside a large
    # one on its scale, not under the cut of the stack they share; a
    # largest entry of 1, unlike a unit Euclidean norm, cannot overflow
    peaks = np.abs(batch).max(axis=-1, keepdims=True)
    np.divide(batch, peaks, out=batch, where=peaks > 0)
    ranks = _sv_rank(np.linalg.svd(batch, compute_uv=False)).tolist()
    out = []
    k = 0
    for _, Bs in groups:
        ra, rest = ranks[k], ranks[k + 1:k + 1 + 2 * len(Bs)]
        out.append((ra, [ra + rb - rab if ra and rb else 0
                         for rb, rab in zip(rest[::2], rest[1::2])]))
        k += 1 + 2 * len(Bs)
    return out


def _float_rows(A):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return A if A.size else A[:0]


def intersection_dim(A, B):
    """dim(rowspace(A) ∩ rowspace(B)): `intersection_dims` on one pair."""
    return intersection_dims(A, [B])[1][0]
