"""Pfaffian ideals, derived systems, derived flags, and differential closures.

An ideal is represented by its one-form generators, kept in a deterministic
reduced echelon order.  All linear algebra over the coefficient function
field goes through `zeroness`-certified pivots, with numeric cross-checks at
the base point and at perturbed sample points so that a failure of the
regularity assumption surfaces as RegularityViolation instead of a silently
wrong flag.  The derived flag first asks one exact perturbed point whether a
step empties its ideal, and assembles the step's symbolic conditions only
where that point cannot tell (`_empties_at_a_point`).
"""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import (DomainError, InconclusiveZeroTest, NoTermination,
                     RegularityViolation)
from .expr import (Expr, Point, Zeroness, coprime_factor_base,
                   denominator_lcm, divide_by_factors, divide_by_gcd,
                   exact_quotient, float_at)
from .forms import KForm, coordinate_form, exterior_derivative, wedge
from . import numlin

__all__ = [
    "PfaffianIdeal",
    "Flag",
    "Membership",
    "ideal_membership",
    "derived_system",
    "derived_flag",
    "differential_closure",
    "augment_with_dt",
    "nullspace_function_field",
    "perturbed_points",
]


class Membership:
    MEMBER = "member"
    NON_MEMBER = "non-member"
    INCONCLUSIVE = "inconclusive"


# perturbed_points: how many points, the seed of their offsets, and the
# scale of each offset
_PERTURBED_COUNT = 8
_PERTURBED_SEED = 1
_PERTURBED_SCALE = Fraction(1, 4)


def perturbed_points(p0: Point):
    """Rational perturbations of the base point, for rank certification.
    Every coordinate moves (offsets are nonzero) so degenerate loci through
    p0 itself are left behind.  Built once per base point and kept on it,
    so every derived step and closure of a run shares the points and their
    cached monomial values; callers must not change the list."""
    if p0._perturbed is None:
        rng = random.Random(_PERTURBED_SEED)
        pts = []
        for _ in range(_PERTURBED_COUNT):
            vals = []
            for v in p0.values:
                q = rng.randint(1, 8)
                p = rng.randint(1, 3 * q) * rng.choice((-1, 1))
                vals.append(v + Fraction(p, q) * _PERTURBED_SCALE)
            pts.append(Point(p0.vars, vals))
        p0._perturbed = pts
    return p0._perturbed


# ---------------------------------------------------------------------------
# linear algebra over the function field
# ---------------------------------------------------------------------------

def _row_weight(row):
    return sum(len(c.num) + len(c.den) for c in row)


def _pivot_in_column(rows, col, start, p0, require_p0):
    """Pick a pivot row for `col` among rows[start:].

    A pivot must be symbolically NonZero; when `require_p0` it must also not
    vanish numerically at the base point, which keeps the echelon basis
    regular at p0.  Among the eligible rows the sparsest one wins (simplest
    pivot entry, then simplest row, then lowest index), which keeps the
    eliminations from compounding expression sizes.  Inconclusive
    coefficients make the rank decision unsound and raise.
    """
    inconclusive = False
    best = None
    best_key = None
    for i in range(start, len(rows)):
        c = rows[i][col]
        z = c.zeroness()
        if z == Zeroness.ZERO:
            continue
        if z == Zeroness.INCONCLUSIVE:
            inconclusive = True
            continue
        if require_p0:
            try:
                val = abs(float_at(c, p0))
            except DomainError:
                val = 0.0
            if val <= numlin.RANK_TOL:
                continue
        key = (len(c.num) + len(c.den), _row_weight(rows[i]), i)
        if best_key is None or key < best_key:
            best, best_key = i, key
    if best is not None:
        return best
    if inconclusive and not require_p0:
        raise InconclusiveZeroTest(
            "pivot decision blocked by an inconclusive zero test")
    return None


def _clear_denominators_row(row):
    """Multiply a vector by the least common multiple of its denominators."""
    if all(c.is_polynomial() for c in row):
        return list(row)
    mult = denominator_lcm(row)
    return [c * mult for c in row]


def _row_primitive(row):
    """Divide a denominator-free row by the polynomial gcd of its entries."""
    return divide_by_gcd(row)


def _normalize_row(row, factors):
    """Clear denominators, strip the common polynomial factor, and make the
    leading coefficient monic when it is rational.  The row is divided by
    the known `factors` first, so the gcd sees only the cofactors."""
    row = _row_primitive(divide_by_factors(_clear_denominators_row(row),
                                           factors))
    lead = None
    for c in row:
        if not c.is_structural_zero():
            lead = c
            break
    if lead is None:
        return row
    r = lead.as_rational()
    if r is not None and r != 0:
        inv = Expr.rational(lead.vars, Fraction(1, 1) / r)
        row = [c * inv for c in row]
    return row


def rref_function_field(rows, p0):
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
    rows = [_clear_denominators_row(list(r)) for r in rows]
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
        return _pivot_in_column(rows, col, start, p0, require_p0)

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
        rows[idx] = _normalize_row(row, bareiss)
    # the completion has normalized rows 0 .. np1-2 already
    done = max(np1 - 1, 0)
    out = rows[:done] + [_normalize_row(rows[k], bareiss)
                         for k in range(done, r)]
    return out, pivots


def nullspace_function_field(matrix, p0):
    """Basis of {x : M x = 0} over the fraction field, denominators cleared.

    Deterministic: free columns keep their natural order; the k-th basis
    vector has a 1 in the k-th free column.  Works for staircase (not fully
    reduced) echelon output via bottom-up back substitution.
    """
    if not matrix:
        return []
    ncols = len(matrix[0])
    vars0 = matrix[0][0].vars
    reduced, pivots = rref_function_field(matrix, p0)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Expr.zero(vars0) for _ in range(ncols)]
        vec[fc] = Expr.one(vars0)
        # each row reads sum_c row[c] * x_c = 0; a row has zeros at pivot
        # columns assigned before it, so reverse assignment order resolves
        # every referenced pivot value first
        for row, pc in reversed(list(zip(reduced, pivots))):
            s = Expr.zero(vars0)
            for c in range(ncols):
                if c == pc:
                    continue
                if not row[c].is_structural_zero() and not vec[c].is_structural_zero():
                    s = s + row[c] * vec[c]
            if not s.is_structural_zero():
                vec[pc] = -(s / row[pc])
        basis.append(_row_primitive(_clear_denominators_row(vec)))
    return basis


def reduce_against_rows(target, reduced_rows, pivots):
    """Remainder of `target` after elimination against echelon rows."""
    rem = list(target)
    for row, pc in zip(reduced_rows, pivots):
        c = rem[pc]
        if c.is_structural_zero():
            continue
        factor = c / row[pc]
        rem = [a - factor * b for a, b in zip(rem, row)]
    return rem


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def _forms_to_rows(forms):
    vars0 = forms[0].vars
    rows = []
    for f in forms:
        if f.degree != 1:
            raise ValueError("generators must be one-forms")
        rows.append([f.coefficient((i,)) for i in range(vars0.total)])
    return rows


def _rows_to_forms(rows, vars0):
    out = []
    for row in rows:
        terms = {(i,): c for i, c in enumerate(row) if not c.is_structural_zero()}
        out.append(KForm(vars0, 1, terms))
    return out


class PfaffianIdeal:
    """Finitely generated ideal of forms, represented by one-form generators.

    The generators are echelonized once, on construction: the echelon rows
    and pivots are the ideal's `rows()`, and the generators are those rows
    as forms.  Both the supplied generators and the echelon basis are
    checked for pointwise independence at the base point.  Internal callers
    whose rows carry artifact scalings (cleared nullspace vectors) skip the
    raw check via `_validate_raw=False`; the echelon basis is still
    checked.  An ideal with another's generators is `_relabelled`, sharing
    its rows, so nothing is echelonized or checked twice.
    """

    def __init__(self, generators, p0: Point, provenance="system",
                 _validate_raw=True):
        generators = list(generators)
        self.p0 = p0
        self.provenance = provenance
        self.vars = p0.vars
        self.generators, self._rows, self._pivots = [], [], []
        # whether <ideal, dt> is differential; decided by derived_system
        self._dt_closed = None
        self._d = None  # d of each generator, built by _differentials
        if not generators:
            return
        if _validate_raw:
            raw = np.array([g.at(p0) for g in generators])
            if numlin.rank(raw) != len(generators):
                raise RegularityViolation(
                    "supplied generators are pointwise dependent at the "
                    "base point")
        self._rows, self._pivots = rref_function_field(
            _forms_to_rows(generators), p0)
        self.generators = _rows_to_forms(self._rows, self.vars)
        if numlin.rank(self.at(p0)) != len(self.generators):
            raise RegularityViolation(
                "generators are pointwise dependent at the base point")

    def _relabelled(self, provenance):
        """The same ideal under another provenance, sharing its echelon."""
        out = copy.copy(self)
        out.provenance = provenance
        return out

    def __len__(self):
        return len(self.generators)

    def rows(self):
        return self._rows, self._pivots

    def at(self, p: Point):
        if not self.generators:
            return np.zeros((0, self.vars.total))
        return np.array([g.at(p) for g in self.generators])

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators) or "0"
        return f"<{self.provenance} ideal ({len(self.generators)} gens): {gens}>"


def _span_with_dt(ideal: PfaffianIdeal, p: Point):
    """Rows spanning span{ideal_p, dt_p}: the generators at p with their dt
    coefficients left out, then the unit covector of the time coordinate
    (index 0).  The dt coefficients are never evaluated, so they may be
    beyond float range where the span is not."""
    rows = np.zeros((len(ideal) + 1, ideal.vars.total))
    for r, g in enumerate(ideal.generators):
        for (i,), c in g.terms.items():
            if i:
                rows[r, i] = float_at(c, p)
    rows[-1, 0] = 1.0
    return rows


def augment_with_dt(ideal: PfaffianIdeal, provenance=None) -> PfaffianIdeal:
    dt = coordinate_form(ideal.vars, 0)
    return PfaffianIdeal(list(ideal.generators) + [dt], ideal.p0,
                         provenance or f"{ideal.provenance}+dt")


def ideal_membership(a: KForm, ideal: PfaffianIdeal) -> str:
    """Is the one-form `a` a function-coefficient combination of generators?"""
    if a.degree != 1:
        raise ValueError("membership is defined for one-forms")
    if a.is_structural_zero():
        return Membership.MEMBER
    if not ideal.generators:
        return Membership.NON_MEMBER
    rows, pivots = ideal.rows()
    target = [a.coefficient((i,)) for i in range(ideal.vars.total)]
    rem = reduce_against_rows(target, rows, pivots)
    verdict = Membership.MEMBER
    for c in rem:
        z = c.zeroness()
        if z == Zeroness.NONZERO:
            return Membership.NON_MEMBER
        if z == Zeroness.INCONCLUSIVE:
            verdict = Membership.INCONCLUSIVE
    return verdict


def _differentials(ideal: PfaffianIdeal):
    """d of each generator, built once per ideal."""
    if ideal._d is None:
        ideal._d = [exterior_derivative(g) for g in ideal.generators]
    return ideal._d


def _factor_product(vars0, factors):
    out = Expr.one(vars0)
    for e, mult in factors.items():
        out = out * e ** mult
    return out


def _complement_substitution(ideal: PfaffianIdeal):
    """For each pivot coordinate of the echelon generators, a fraction-free
    replacement dv_pivot === form/den mod I with the numerator form supported
    on complement coordinates only.  Denominators are kept as factor
    multisets (Counters) over one pairwise coprime base of the pivot
    entries, so associated pivots share their factors, the maximum of two
    multisets is their least common multiple, and later products never need
    polynomial division or gcd.  Pivots are solved in reverse assignment
    order."""
    rows, pivots = ideal.rows()
    vars0 = ideal.vars
    _, factored = coprime_factor_base(row[pc]
                                      for row, pc in zip(rows, pivots))
    subs = {}  # pivot col -> (KForm numerator, factor multiset)
    for row, pc, (unit, powers) in reversed(list(zip(rows, pivots,
                                                     factored))):
        # common denominator over the resolved pivots this row references
        common = Counter()
        for c in range(vars0.total):
            if c == pc or row[c].is_structural_zero() or c not in subs:
                continue
            common |= subs[c][1]
        q_common = _factor_product(vars0, common)
        acc = KForm.zero(vars0, 1)
        for c in range(vars0.total):
            if c == pc or row[c].is_structural_zero():
                continue
            if c in subs:
                form_c, den_c = subs[c]
                scale = _factor_product(vars0, common - den_c)
                acc = acc + form_c.scale(row[c] * scale)
            else:
                acc = acc + coordinate_form(vars0, c).scale(row[c] * q_common)
        # the pivot entry is unit * powers; the unit joins the numerator
        subs[pc] = (acc.scale(Expr.rational(vars0, -1 / unit)),
                    Counter(powers) + common)
    return subs


def _reduce_pieces(w: KForm, subs):
    """Substitution terms of a 2-form and the denominator multiset they
    need; assembled later against a shared denominator."""
    vars0 = w.vars
    empty = Counter()
    pieces = []
    need = Counter()
    for (i, j), c in w.terms.items():
        fi, di = subs.get(i, (None, empty))
        fj, dj = subs.get(j, (None, empty))
        if fi is None:
            fi = coordinate_form(vars0, i)
        if fj is None:
            fj = coordinate_form(vars0, j)
        den = di + dj
        pieces.append((c, fi, fj, den))
        need |= den
    return pieces, need


def _assemble_pieces(vars0, pieces, need):
    out = KForm.zero(vars0, 2)
    for c, fi, fj, den in pieces:
        scale = _factor_product(vars0, need - den)
        out = out + wedge(fi, fj).scale(c * scale)
    return out


def _reduce_two_form(w: KForm, subs):
    """Rewrite a 2-form modulo the algebraic ideal, scaled by a nonzero
    function (the common denominator of the substitutions it touches)."""
    pieces, need = _reduce_pieces(w, subs)
    return _assemble_pieces(w.vars, pieces, need)


def derived_system(ideal: PfaffianIdeal) -> PfaffianIdeal:
    """I' = {w in I : dw in I}.

    Express each d(generator) modulo the algebraic ideal in the complement
    2-form basis; the function-coefficient nullspace of the resulting linear
    system gives the generators of the derived system.  A differential
    ideal, the zero ideal too, comes back `_relabelled`.

    The same reductions decide whether <ideal, dt> is differential, which
    the step records on `ideal` (`_dt_closes`); the flag reads it.
    """
    vars0 = ideal.vars
    if not ideal.generators:
        ideal._dt_closed = True
        return ideal._relabelled("derived-from")
    subs = _complement_substitution(ideal)
    # one shared denominator scale across all generators so the nullspace of
    # the scaled conditions is the nullspace of the true ones
    all_pieces = []
    need = Counter()
    for dg in _differentials(ideal):
        pieces, n = _reduce_pieces(dg, subs)
        all_pieces.append(pieces)
        need |= n
    reduced = []
    pair_index = {}
    for pieces in all_pieces:
        r = _assemble_pieces(vars0, pieces, need)
        reduced.append(r)
        for idx in r.terms:
            pair_index.setdefault(idx, len(pair_index))
    ideal._dt_closed = not pair_index or _dt_closes(reduced, subs)
    n_gens = len(ideal.generators)
    if not pair_index:
        # every d(generator) already reduces to zero: differential ideal
        return ideal._relabelled("derived-from")
    matrix = [[Expr.zero(vars0) for _ in range(n_gens)]
              for _ in range(len(pair_index))]
    for col, r in enumerate(reduced):
        for idx, c in r.terms.items():
            matrix[pair_index[idx]][col] = c
    # rows are linear conditions; scaling a row is free.  A cleared row is
    # divided by the base elements of `need` that divide it (the shared
    # denominator may over-clear it), which leaves its primitive row times
    # a polynomial, so wherever it does not vanish it spans the same line
    # as the primitive row: the exact ranks make a row primitive only where
    # it vanishes, once, and the nullspace takes every row primitive
    matrix = [divide_by_factors(_clear_denominators_row(row), need)
              for row in matrix]
    primitive = {}

    def primitive_row(i):
        if i not in primitive:
            primitive[i] = _row_primitive(matrix[i])
        return primitive[i]

    exact = _is_exact(matrix, ideal.p0)
    if not exact:
        # float ranks read the primitive rows, which may shed a kernel
        matrix = [primitive_row(i) for i in range(len(matrix))]
        exact = _is_exact(matrix, ideal.p0)
    ranks = []
    for perturbed, r in _sample_ranks(matrix, ideal.p0, exact,
                                      primitive_row):
        if exact and r == n_gens:
            # full column rank at an exactly evaluated rational point,
            # hence generically: the derived system is zero
            return PfaffianIdeal([], ideal.p0, "derived-from")
        ranks.append((perturbed, r))
    basis = nullspace_function_field(
        [primitive_row(i) for i in range(len(matrix))], ideal.p0)
    sym_rank = n_gens - len(basis)
    # point ranks never exceed the generic rank; catching the converse
    # guards the symbolic elimination itself
    top = max((r for _, r in ranks), default=0)
    if top > sym_rank:
        raise RegularityViolation(
            f"rank {top} at a sample point exceeds the generic rank "
            f"{sym_rank} of the derived-step conditions")
    sampled = [r for perturbed, r in ranks if perturbed]
    if sampled and all(r < sym_rank for r in sampled):
        raise RegularityViolation(
            f"generic rank {sym_rank} of the derived-step conditions is not "
            "attained at any perturbed point")
    new_gens = []
    for vec in basis:
        g = KForm.zero(vars0, 1)
        for lam, gen in zip(vec, ideal.generators):
            if not lam.is_structural_zero():
                g = g + gen.scale(lam)
        if not g.is_structural_zero():
            new_gens.append(g)
    out = PfaffianIdeal(new_gens, ideal.p0, "derived-from",
                        _validate_raw=False)
    for g in out.generators:
        if ideal_membership(g, ideal) == Membership.NON_MEMBER:
            raise RegularityViolation(
                "derived-system generator escaped the parent ideal")
    return out


def _dt_closes(reduced, subs):
    """Whether <I, dt> is differential (the criterion is proved in
    `Flag`), from r_i = s * (d(w_i) mod I) in the complement 2-form basis
    (s a nonzero common scale) and the substitutions of I's pivots.  If t
    is no pivot, theta = dt mod I is dt itself, and every term of every r_i
    must hold dt.  Otherwise theta is the numerator of t's substitution,
    and theta ^ r_i is decided coefficient by coefficient up to the first
    one that is not structurally zero.  Only structural zeros count, so a
    kernel identity can only answer False, which takes the general route of
    `differential_closure`."""
    if 0 not in subs:
        return all(idx[0] == 0 for r in reduced for idx in r.terms)
    theta = subs[0][0]
    if theta.is_structural_zero():
        # dt is in I; augmenting it raises
        return False
    vars0 = theta.vars
    for r in reduced:
        # the terms of theta ^ r by sorted index triple, with their signs
        triples = {}
        for key, sign, ca, cr in _wedge_terms(theta.terms, r.terms):
            triples.setdefault(key, []).append((sign, ca, cr))
        for terms in triples.values():
            acc = Expr.zero(vars0)
            for sign, ca, cr in terms:
                acc = acc + ca * cr if sign > 0 else acc - ca * cr
            if not acc.is_structural_zero():
                return False
    return True


def _is_exact(matrix, p0):
    """Exact ranks need every entry to evaluate to a rational: no entry may
    carry kernels, and p0 (hence every perturbed point) must be
    rational."""
    return (all(isinstance(v, Fraction) for v in p0.values)
            and not any(c.has_kernels() for row in matrix for c in row))


def _sample_ranks(matrix, p0, exact, primitive_row):
    """Yield (perturbed, rank) for the conditions matrix at p0 and then at
    `perturbed_points(p0)`, lazily so the caller can stop early.

    Exact ranks are taken over Q, of the primitive rows: a row that
    vanishes at a point is replaced there by `primitive_row(i)`, and every
    other row spans the same line as its primitive row.  Float ranks follow
    the `numlin` policy and skip p0, where a kernel-bearing coefficient
    matrix may legitimately drop rank.  Points outside the entries' domain
    are skipped."""
    pts = ([p0] if exact else []) + perturbed_points(p0)
    for p in pts:
        try:
            vals = [[c.eval(p) for c in row] for row in matrix]
            if exact:
                for i, v in enumerate(vals):
                    if not any(v):
                        vals[i] = [c.eval(p) for c in primitive_row(i)]
        except DomainError:
            continue
        r = numlin.exact_rank(vals) if exact else numlin.rank(
            np.array(vals, dtype=float))
        yield p is not p0, r


def _classes_at(rows, pivots, p):
    """The class of each coordinate's covector modulo span(I_p), as integer
    values {complement column: value} all scaled by one positive integer:
    a complement coordinate is its own class, and the pivots are solved
    from the echelon rows evaluated exactly at p, in reverse assignment
    order, as in `_complement_substitution`.  None when a pivot vanishes
    at p."""
    solved = {}
    for row, pc in reversed(list(zip(rows, pivots))):
        piv = row[pc].eval(p)
        if not piv:
            return None
        acc = {}
        for c, e in enumerate(row):
            if c == pc or e.is_structural_zero():
                continue
            v = e.eval(p)
            for x, s in solved.get(c, {c: 1}).items():
                acc[x] = acc.get(x, 0) + v * s
        solved[pc] = {x: -s / piv for x, s in acc.items() if s}
    den = math.lcm(*(s.denominator for cl in solved.values()
                     for s in cl.values()))
    classes = {c: {c: den} for c in range(len(rows[0])) if c not in solved}
    for pc, cl in solved.items():
        classes[pc] = {x: s.numerator * (den // s.denominator)
                       for x, s in cl.items()}
    return classes


def _two_form_class_at(w: KForm, classes, p):
    """The class of the 2-form w at p in the second exterior power of the
    complement, as integer values {(x, y): value} with x < y, scaled by a
    positive integer."""
    values = [(idx, c.eval(p)) for idx, c in w.terms.items()]
    scale = math.lcm(*(v.denominator for _, v in values))
    out = {}
    for (a, b), v in values:
        if not v:
            continue
        v = v.numerator * (scale // v.denominator)
        class_b = classes[b]
        for x, s in classes[a].items():
            vs = v * s
            for y, t in class_b.items():
                if x < y:
                    out[x, y] = out.get((x, y), 0) + vs * t
                elif y < x:
                    out[y, x] = out.get((y, x), 0) - vs * t
    return out


def _wedge_terms(theta, w):
    """The terms of theta ^ w, for a 1-form theta and a 2-form w given as
    {index tuple: coefficient}: (sorted index triple, sign, coefficient in
    theta, coefficient in w), leaving out repeated indices."""
    for (a,), ca in theta.items():
        for (b, c), cw in w.items():
            if a < b:
                yield (a, b, c), 1, ca, cw
            elif b < a < c:
                yield (b, a, c), -1, ca, cw
            elif c < a:
                yield (b, c, a), 1, ca, cw


def _wedge_is_nonzero(theta, col):
    """Whether theta ^ col is nonzero, for values of a covector and a
    2-form on the complement."""
    triples = {}
    for key, sign, s, t in _wedge_terms(theta, col):
        triples[key] = triples.get(key, 0) + sign * s * t
    return any(triples.values())


def _empties_at_a_point(ideal: PfaffianIdeal) -> bool:
    """Whether one exact point proves that the derived step of `ideal`
    gives the zero ideal while <ideal, dt> is not differential.

    At the first perturbed point p where every entry is defined, the
    classes of d(w_i) modulo I_p are n vectors; rank n there means rank n
    over the function field (a point rank never exceeds the generic rank),
    so no combination of the generators has its d in I.  A nonzero
    theta ^ (d(w_i) mod I) at p, theta = dt mod I, makes that coefficient
    nonzero, so `_dt_closes` would answer False.  The classes are read
    one at a time, and the first that does not raise their rank ends the
    test, with the rest never evaluated.  False means the point
    does not decide: a rank below n, a zero wedge, a pivot vanishing at p,
    a kernel or an irrational base point, or only constant pivots, where
    `derived_system`'s symbolic conditions need no shared denominator and
    are as cheap as the point."""
    rows, pivots = ideal.rows()
    if (all(row[pc].as_rational() is not None
            for row, pc in zip(rows, pivots))
            or not _is_exact(rows, ideal.p0)):
        return False
    for p in perturbed_points(ideal.p0):
        cols = []
        try:
            classes = _classes_at(rows, pivots, p)
            if classes is None:
                return False
            for dw in _differentials(ideal):
                cols.append(_two_form_class_at(dw, classes, p))
                if numlin.exact_rank(cols) < len(cols):
                    return False
        except DomainError:
            continue
        theta = {(x,): s for x, s in classes[0].items()}
        return any(_wedge_is_nonzero(theta, col) for col in cols)
    return False


class Flag:
    """Descending chain of ideals from I^(0) to the terminal differential
    ideal.

    Each entry carries the verdict of its own derived step: whether
    <I^(k), dt> is already differential (`_dt_closes`).  Proof of the
    criterion: d(dt) = 0 and d(a dt) = da ^ dt, so <I, dt> is differential
    iff each d(w_i) mod I lies in theta ^ (Omega / I), theta = dt mod I != 0,
    which over the function field is theta ^ (d(w_i) mod I) = 0.  At a closed
    level the closure of <I^(k), dt> is that ideal itself, so nothing is
    derived for it, and <I^(k), dt> is echelonized only where a closure's
    generators are read.  Pointwise, span{I^(k)_p, dt_p} comes from I^(k)'s
    own rows (`with_dt`).  Where a step is decided at a point
    (`derived_flag`), the verdict is False, shown by a nonzero value of
    theta ^ (d(w_i) mod I); a point never shows it True, since a zero value
    there may be a zero of a nonzero coefficient.  The dt-augmented entries
    and their closures are pure functions of an entry, so each is built on
    first request and memoized by min(k, terminal_index): every consumer
    shares one copy per distinct entry."""

    def __init__(self, entries, closed):
        self.entries = list(entries)
        self._closed = list(closed)
        self._augmented = {}
        self._closures = {}
        self._dt_checked = set()

    @property
    def terminal_index(self):
        return len(self.entries) - 1

    def _key(self, k):
        if k < 0:
            raise ValueError("flag index must be >= 0")
        return min(k, self.terminal_index)

    def entry(self, k):
        """I^(k), with entries frozen past the terminal index."""
        return self.entries[self._key(k)]

    def closed(self, k):
        """Whether <I^(k), dt> is differential, as its derived step found."""
        return self._closed[self._key(k)]

    def with_dt(self, k):
        """I^(k), whose rows at a point span <I^(k), dt> there with the dt
        row (`_span_with_dt`).  The first read of an entry checks, as
        augmenting it does, that dt is independent of I^(k) at p0."""
        key = self._key(k)
        entry = self.entries[key]
        if key not in self._dt_checked and key not in self._augmented:
            if numlin.rank(_span_with_dt(entry, entry.p0)) != len(entry) + 1:
                raise RegularityViolation(
                    "supplied generators are pointwise dependent at the "
                    "base point")
        self._dt_checked.add(key)
        return entry

    def augmented(self, k):
        """<I^(k), dt>, built once per distinct entry."""
        key = self._key(k)
        if key not in self._augmented:
            self._augmented[key] = augment_with_dt(self.entries[key],
                                                   f"I({key})+dt")
        return self._augmented[key]

    def closure(self, k):
        """Differential closure of <I^(k), dt>, built once per distinct
        entry: at a closed level <I^(k), dt> itself, relabelled, which is
        what `differential_closure` returns for it."""
        key = self._key(k)
        if key not in self._closures:
            aug = self.augmented(key)
            self._closures[key] = (
                aug._relabelled(f"closure-of {aug.provenance}")
                if self._closed[key] else differential_closure(aug))
        return self._closures[key]

    def closure_size(self, k):
        """Generator count of the closure of <I^(k), dt>; len(I^(k)) + 1 at
        a closed level, where nothing is built."""
        if self.closed(k):
            return len(self.with_dt(k)) + 1
        return len(self.closure(k))

    def generator_counts(self):
        return tuple(len(e) for e in self.entries)


def derived_flag(ideal: PfaffianIdeal, max_steps=None) -> Flag:
    """I, I', I'', ... up to the first differential entry.

    `derived_system` returns its ideal itself (relabelled, sharing the
    echelon rows) exactly when every d(generator) reduces to zero; any
    other step has a structurally nonzero condition matrix, so its
    symbolic rank is at least 1 and it loses a generator.  Each step also
    records whether <entry, dt> is differential, which the flag keeps.

    Before a step runs `derived_system`, one exact perturbed point may
    decide that it empties the ideal (`_empties_at_a_point`): the classes
    of the n differentials d(w_i) modulo I have rank n there, and a point
    rank never exceeds the generic rank, so I' = 0, which is what
    `derived_system` returns; a nonzero theta ^ (d(w_i) mod I) there shows
    <entry, dt> not differential.  Any other step, and every step the
    point cannot tell, runs `derived_system`."""
    if max_steps is None:
        max_steps = ideal.vars.total + 1
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    entries = [ideal]
    closed = []
    for _ in range(max_steps):
        if _empties_at_a_point(entries[-1]):
            entries[-1]._dt_closed = False
            nxt = PfaffianIdeal([], ideal.p0, "derived-from")
        else:
            nxt = derived_system(entries[-1])
        closed.append(entries[-1]._dt_closed)
        if nxt.rows()[0] is entries[-1].rows()[0]:
            return Flag(entries, closed)
        if len(nxt) >= len(entries[-1]):
            raise RegularityViolation(
                "derived step of a non-differential ideal did not shrink it")
        entries.append(nxt)
        if len(nxt) == 0:
            # <0, dt> = <dt> is differential
            return Flag(entries, closed + [True])
    raise NoTermination(
        f"derived flag did not stabilize within {max_steps} steps")


def differential_closure(ideal: PfaffianIdeal) -> PfaffianIdeal:
    """Terminal ideal of the derived flag; the largest differential ideal
    inside `ideal` under the regularity assumption."""
    return derived_flag(ideal).entries[-1]._relabelled(
        f"closure-of {ideal.provenance}")


def two_form_membership(w: KForm, ideal: PfaffianIdeal) -> str:
    """Is the 2-form w in the algebraic ideal of the generators, i.e. a sum
    of wedges alpha_i ^ gamma_i?"""
    if w.degree != 2:
        raise ValueError("expected a 2-form")
    if w.is_structural_zero():
        return Membership.MEMBER
    if not ideal.generators:
        return Membership.NON_MEMBER
    r = _reduce_two_form(w, _complement_substitution(ideal))
    verdict = Membership.MEMBER
    for c in r.terms.values():
        z = c.zeroness()
        if z == Zeroness.NONZERO:
            return Membership.NON_MEMBER
        if z == Zeroness.INCONCLUSIVE:
            verdict = Membership.INCONCLUSIVE
    return verdict
