"""The `Fraction` elimination that `numlin` used before its integer core, kept
as a test-only reference: a forward Gauss elimination over Q on sparse rows
and the nullspace by back substitution.  The integer core must give the same
ranks and the same nullspace vectors."""

from fractions import Fraction


def fraction_echelon(rows):
    """Forward Gauss elimination over Q on sparse rows {column: Fraction}:
    (echelon rows, pivot columns).  Each column, left to right, takes its
    pivot from the first remaining row that holds it.  Zero rows are
    dropped, and the sweep stops once every row holds a pivot, since the
    columns left are then all free."""
    rows = [{c: Fraction(x) for c, x in (r.items() if isinstance(r, dict)
                                         else enumerate(r)) if x}
            for r in rows]
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
    return len(fraction_echelon(rows)[1])


def rational_nullspace(rows, ncols):
    """The k-th vector has a 1 in the k-th free column and 0 in the other
    free columns, by back substitution through the echelon rows."""
    echelon, pivots = fraction_echelon(rows)
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
