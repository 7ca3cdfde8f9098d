"""The echelon of `pfaffian.rref_function_field` with its Jordan completion
over the fraction field, as it was before the completion became
fraction-free, kept as a test-only reference: each completing step was
row - (row[pc] / q) * r, a rational function per entry.  The fraction-free
completion must give the same pivots and, row by row, the same row or a
positive integer multiple of it, where clearing the fractions left the old
row short of an integer factor (tests/test_augment.py)."""

import tflkit.pfaffian as pf
from tflkit.errors import InconclusiveZeroTest
from tflkit.expr import Zeroness, exact_quotient


def fraction_rref(rows, p0):
    """Echelon form over the fraction field of Expr.

    Fraction-free (Bareiss) forward elimination with two pivot passes:
    columns are pivoted left to right using only pivots that do not vanish
    at the base point, then the remaining rows are pivoted symbolically
    without the p0 requirement, so the basis stays pointwise regular at p0
    whenever the row module is.  Returns (rows, pivot_columns) in pivot
    assignment order: every row has zeros at all pivot columns assigned
    before it, which is what the back substitutions in
    nullspace_function_field and _complement_substitution rely on.
    """
    rows = [pf._clear_denominators_row(list(r)) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    r = 0
    pivots = []
    # Bareiss pivots in order.  Step k rescales a row whose entry in the
    # pivot column is structurally zero by p_k / p_(k-1); the factors
    # telescope, so such a row is left alone and caught up, by p_k / p_j
    # from the step j it last saw, just before it is read: as a pivot
    # candidate (every row a pivot eliminates was one) or at the end.  The
    # values are those of the eager elimination, and forms are canonical.
    bareiss = []
    seen = [0] * len(rows)  # row i is current as of step seen[i]

    def catch_up(i):
        j, k = seen[i], len(bareiss)
        if j < k:
            pk = bareiss[-1]
            if j:
                pj = bareiss[j - 1]
                rows[i] = [a if a.is_structural_zero()
                           else exact_quotient(a * pk, pj) for a in rows[i]]
            else:
                rows[i] = [a * pk for a in rows[i]]
            seen[i] = k

    def pivot_in_column(col, start, require_p0):
        for i in range(start, len(rows)):
            if not rows[i][col].is_structural_zero():
                catch_up(i)
        return pf._pivot_in_column(rows, col, start, p0, require_p0)

    def swap(a, b):
        rows[a], rows[b] = rows[b], rows[a]
        seen[a], seen[b] = seen[b], seen[a]

    def eliminate_below(r, col):
        pc = rows[r][col]
        prev = bareiss[-1] if bareiss else None
        for i in range(r + 1, len(rows)):
            ci = rows[i][col]   # a candidate for col, so caught up
            if ci.is_structural_zero():
                continue
            new = [pc * a - ci * b for a, b in zip(rows[i], rows[r])]
            if prev is not None:
                new = [exact_quotient(x, prev) for x in new]
            rows[i] = new
            seen[i] = len(bareiss) + 1
        bareiss.append(pc)

    deferred = []
    for col in range(ncols):
        piv = pivot_in_column(col, r, require_p0=True)
        if piv is None:
            deferred.append(col)
            continue
        swap(r, piv)
        eliminate_below(r, col)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    np1 = r  # pivots so far do not vanish at p0
    if r < len(rows):
        for col in deferred:
            piv = pivot_in_column(col, r, require_p0=False)
            if piv is None:
                continue
            swap(r, piv)
            eliminate_below(r, col)
            pivots.append(col)
            r += 1
            if r == len(rows):
                break
    # leftover rows must be structurally zero; NonZero leftovers mean the
    # zero tests could not support a pivot anywhere in them
    for i in range(r, len(rows)):
        catch_up(i)
        for c in rows[i]:
            if c.zeroness() == Zeroness.INCONCLUSIVE:
                raise InconclusiveZeroTest(
                    "row elimination left an undecidable residual")
            if c.zeroness() == Zeroness.NONZERO:
                raise InconclusiveZeroTest(
                    "no usable pivot for a symbolically nonzero row")
    # Jordan completion among the p0-regular pivots keeps the basis clean
    # (and the generators small); pass-2 pivots may vanish at p0, so rows
    # are never divided by them
    for idx in range(np1 - 2, -1, -1):
        row = rows[idx]
        for jdx in range(np1 - 1, idx, -1):
            pc = pivots[jdx]
            if row[pc].is_structural_zero():
                continue
            factor = row[pc] / rows[jdx][pc]
            row = [a - factor * b for a, b in zip(row, rows[jdx])]
        rows[idx] = pf._normalize_row(row, bareiss)
    # the completion has normalized rows 0 .. np1-2 already
    done = max(np1 - 1, 0)
    out = rows[:done] + [pf._normalize_row(rows[k], bareiss)
                         for k in range(done, r)]
    return out, pivots
