"""Exact first integrals for integrable Pfaffian systems and the adaptation
machinery that makes their leading components vanish on the lifted target
manifold.

Closed-form quadrature is not decidable in the expression class, so the
integrator is deliberately layered: closed generators are integrated
directly, closed polynomial-coefficient combinations of generators are found
by a finite ansatz, single generators are repaired with an exponential
integrating factor, and user hints fill whatever remains.  A failure
surfaces the residual directions so the caller can supply hints and re-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .errors import (AdaptationFailed, DomainError, HintRejected,
                     IntegrationFailed)
from .expr import Expr, Point, Zeroness, product_terms
from .forms import (KForm, coordinate_field, contract, d_of_function,
                    exterior_derivative, wedge)
from .lift import LiftedSystem
from .pfaffian import (Membership, PfaffianIdeal, ideal_membership,
                       reduce_against_rows, rref_function_field,
                       two_form_membership, _clear_denominators_row,
                       _row_primitive)
from . import numlin

__all__ = [
    "SmoothMapAdapted",
    "antiderivative",
    "poincare_potential",
    "frobenius_integrate",
    "adapt_to_L",
    "adapt_subordinate",
]


@dataclass
class SmoothMapAdapted:
    """Components whose differentials span a differential closure, with the
    leading `vanish_count` components vanishing on L (t always among them)."""

    components: list
    vanish_count: int
    k: int

    def vanishing(self):
        return self.components[:self.vanish_count]

    def non_vanishing(self):
        return self.components[self.vanish_count:]


# ---------------------------------------------------------------------------
# symbolic antiderivatives within the expression class
# ---------------------------------------------------------------------------

def _kernel_linear_in(arg: Expr, v: int):
    """If arg = q*v + r with rational q != 0 and r independent of v, return
    (q, r)."""
    d = arg.diff(v)
    q = d.as_rational()
    if q is None or q == 0:
        return None
    r = arg - Expr.var_index(arg.vars, v) * q
    if r.depends_on(v):
        return None
    return q, r


def _int_power_kernel(vars0, v, a, kind, arg, q):
    """Antiderivative of v^a * kernel(arg) with arg = q*v + r, by parts."""
    vexp = Expr.var_index(vars0, v)
    K = Expr.kernel(kind, arg)
    if kind == "exp":
        # integral of v^a e^(qv+r) dv
        #   = e^(qv+r) * sum_j (-1)^j (a!/(a-j)!) v^(a-j) / q^(j+1)
        total = Expr.zero(vars0)
        ratio = Fraction(1)
        for j in range(a + 1):
            c = ((-1) ** j) * ratio / (q ** (j + 1))
            total = total + Expr.rational(vars0, c) * vexp ** (a - j)
            if a - j > 0:
                ratio *= (a - j)
        return K * total
    if a == 0:
        if kind == "sin":
            return -(Expr.kernel("cos", arg) / q)
        if kind == "cos":
            return Expr.kernel("sin", arg) / q
        return None  # ln has no antiderivative in the class
    if kind == "sin":
        head = -(vexp ** a) * Expr.kernel("cos", arg) / q
        tail = _int_power_kernel(vars0, v, a - 1, "cos", arg, q)
        return None if tail is None else head + tail * Fraction(a, 1) / q
    if kind == "cos":
        head = (vexp ** a) * Expr.kernel("sin", arg) / q
        tail = _int_power_kernel(vars0, v, a - 1, "sin", arg, q)
        return None if tail is None else head - tail * Fraction(a, 1) / q
    return None


def antiderivative(e: Expr, v) -> Expr | None:
    """An F with dF/dv = e, staying inside the expression class, or None."""
    vars0 = e.vars
    if isinstance(v, str):
        v = vars0.index(v)
    if not e.depends_on(v):
        return e * Expr.var_index(vars0, v)
    vexp = Expr.var_index(vars0, v)
    den = e.denominator()
    out = Expr.zero(vars0)
    if den.depends_on(v):
        # only simple poles: den = c * v^k with everything else v-free
        powers = {dict(factors).get(vexp, 0) for _, factors in den.terms()}
        if len(powers) != 1:
            return None
        k = powers.pop()
        rest_den = den / vexp ** k
        if rest_den.depends_on(v):
            return None
        for c, factors in e.numerator().terms():
            a = dict(factors).get(vexp, 0)
            rest = Expr.rational(vars0, c)
            for base, ex in factors:
                if base != vexp:
                    rest = rest * base ** ex
            rest = rest / rest_den
            if rest.depends_on(v):
                return None
            p = a - k
            if p == -1:
                out = out + rest * Expr.kernel("ln", vexp)
            else:
                out = out + rest * vexp ** (p + 1) / (p + 1)
        return out
    for c, factors in e.numerator().terms():
        a = 0
        kernel_factors = []
        rest = Expr.rational(vars0, c)
        for base, ex in factors:
            if base == vexp:
                a = ex
            elif base.depends_on(v):
                kernel_factors.append((base, ex))
            else:
                rest = rest * base ** ex
        rest = rest / den
        if not kernel_factors:
            out = out + rest * vexp ** (a + 1) / (a + 1)
            continue
        if len(kernel_factors) > 1 or kernel_factors[0][1] != 1:
            return None
        kind, arg = kernel_factors[0][0].as_kernel()
        lin = _kernel_linear_in(arg, v)
        if lin is None:
            return None
        q, _r = lin
        piece = _int_power_kernel(vars0, v, a, kind, arg, q)
        if piece is None:
            return None
        out = out + rest * piece
    return out


def poincare_potential(omega: KForm) -> Expr | None:
    """A potential for a closed one-form, by sequential antiderivatives."""
    if omega.degree != 1:
        raise ValueError("potential of a one-form expected")
    vars0 = omega.vars
    F = Expr.zero(vars0)
    residual = omega
    for v in range(vars0.total):
        c = residual.coefficient((v,))
        if c.is_structural_zero():
            continue
        E = antiderivative(c, v)
        if E is None:
            return None
        F = F + E
        residual = omega - d_of_function(F)
    if residual.is_structural_zero():
        return F
    return None


def _row_at(e: Expr, p0: Point):
    """The row of dF at p0 for a component F."""
    return d_of_function(e).at(p0)


def _anchor(e: Expr, bindings):
    """Subtract the value at p0 (`bindings`, from `_p0_bindings`) so
    components vanish there."""
    c = e.substitute(bindings)
    return e - c


def _p0_bindings(vars0, p0: Point):
    return {i: Expr.rational(vars0, v) for i, v in enumerate(p0.values)}


# ---------------------------------------------------------------------------
# rational linear algebra for the ansatz layers
# ---------------------------------------------------------------------------

def _collect_linear_system(columns):
    """Sparse rows {column: rational} of a linear system whose j-th column
    is given as (key, polynomial p, monomial m) triples, the column being
    the sum of p * m over its triples: one row per (key, monomial of the
    products) seen, read off the packed terms (`product_terms`) with no
    expression built."""
    rows = {}
    for j, triples in enumerate(columns):
        for key, e, factor in triples:
            for mono, c in product_terms(e, factor):
                row = rows.setdefault((key, mono), {})
                row[j] = row.get(j, 0) + c
    return list(rows.values())


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------

def _monomials(factors, degree):
    """Products of up to `degree` entries of the non-empty list `factors`,
    one per multiset, the constant 1 first: 1, f_i, f_i f_j, ..."""
    one = Expr.one(factors[0].vars)
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(factors, d):
            m = one
            for f in combo:
                m = m * f
            out.append(m)
    return out


def _closed_combinations(ideal: PfaffianIdeal, degree):
    """Closed combinations with polynomial coefficients, then with the
    generators' pivot product as a shared denominator (catching rational
    coefficient functions like 1/x)."""
    out = _closed_combinations_q(ideal, degree, plain=True)
    out += _closed_combinations_q(ideal, degree, plain=False)
    return out


def _closed_combinations_q(ideal: PfaffianIdeal, degree, plain):
    """Closed one-forms (1/Q) sum mu_i gamma_i with polynomial mu of total
    degree <= degree, where Q is 1 (plain) or the product of the generators'
    non-rational pivot coefficients.  d((1/Q) sigma) = 0 is the polynomial
    condition Q d(sigma) - dQ ^ sigma = 0, linear in the mu coefficients.

    Q dg - dQ ^ g and Q g are built once per generator g.  Multiplying by
    a monomial mu only shifts the packed monomials of the first, and
    dmu ^ (Q g) only re-indexes the terms of the second by 2-form pair, so
    the coefficient of each (pair, monomial) goes straight into a sparse
    row (`_collect_linear_system`), with no 2-form built per (g, mu)
    column."""
    vars0 = ideal.vars
    gens = ideal.generators
    Q = Expr.one(vars0)
    if not plain:
        seen = set()
        for g in gens:
            for v in range(vars0.total):
                c = g.coefficient((v,))
                if c.is_structural_zero():
                    continue
                if c.as_rational() is None and c.key() not in seen:
                    seen.add(c.key())
                    Q = Q * c
                break
    dQ = d_of_function(Q)
    q_is_one = Q.as_rational() == 1
    if not plain and q_is_one:
        return []  # identical to the plain pass
    monos = _monomials([Expr.var_index(vars0, i)
                        for i in range(vars0.total)], degree)
    # the partials of each mu, with their negatives for the swapped pairs
    partials = [[(v, c, -c) for (v,), c in d_of_function(mu).terms.items()]
                for mu in monos]
    columns = []  # (i, mu)
    triples = []  # each column's (2-form pair, polynomial, monomial) terms
    for i, g in enumerate(gens):
        # Q d(mu g) - dQ ^ (mu g) = mu (Q dg - dQ ^ g) + dmu ^ (Q g)
        dg = exterior_derivative(g)
        if not q_is_one:
            dg = dg.scale(Q) - wedge(dQ, g)
            g = g.scale(Q)
        for mu, dmu in zip(monos, partials):
            columns.append((i, mu))
            col = [(idx, c, mu) for idx, c in dg.terms.items()]
            for v, dv, neg in dmu:
                for (w,), c in g.terms.items():
                    if v < w:
                        col.append(((v, w), c, dv))
                    elif w < v:
                        col.append(((w, v), c, neg))
            triples.append(col)
    # linear conditions: every coefficient of every 2-form basis pair is 0;
    # everything above is denominator-free
    rows = _collect_linear_system(triples)
    basis = numlin.rational_nullspace(rows, len(columns))
    out = []
    for vec in basis:
        form = KForm.zero(vars0, 1)
        for coeff, (i, mu) in zip(vec, columns):
            if coeff:
                form = form + gens[i].scale(mu * coeff)
        if form.is_structural_zero():
            continue
        if not q_is_one:
            form = form.scale(Expr.one(vars0) / Q)
        if exterior_derivative(form).is_structural_zero():
            out.append(form)
    return out


def _integrating_factor_candidate(gen: KForm):
    """exp-integrating-factor repair for a single generator: find theta with
    d(gen) = gen ^ theta, a potential T of theta, and return exp(T)*gen."""
    vars0 = gen.vars
    dg = exterior_derivative(gen)
    if dg.is_structural_zero():
        return gen
    pivot = None
    for v in range(vars0.total):
        c = gen.coefficient((v,))
        if not c.is_structural_zero():
            pivot = (v, c)
            break
    if pivot is None:
        return None
    v, c = pivot
    theta = contract(coordinate_field(vars0, v), dg).scale(Expr.one(vars0) / c)
    if not (dg - wedge(gen, theta)).is_structural_zero():
        return None
    if not exterior_derivative(theta).is_structural_zero():
        return None
    T = poincare_potential(theta)
    if T is None:
        return None
    mu = Expr.kernel("exp", T)
    candidate = gen.scale(mu)
    if not exterior_derivative(candidate).is_structural_zero():
        return None
    return candidate


def frobenius_integrate(ideal: PfaffianIdeal, ls: LiftedSystem = None,
                        hints=(), k=None, combo_degree=1,
                        warnings=None) -> SmoothMapAdapted:
    """Map components whose differentials span the (differential) ideal.

    Layers: closed generators, closed polynomial combinations, integrating
    factors, then checked user hints; fails with the residual directions when
    the span cannot be completed.  In the first three layers a closed
    form's row at p0, which is its potential's, is tested for independence
    first, and only a form that raises the rank is integrated.
    """
    vars0 = ideal.vars
    p0 = ideal.p0
    warnings = warnings if warnings is not None else []
    for g in ideal.generators:
        m = two_form_membership(exterior_derivative(g), ideal)
        if m == Membership.NON_MEMBER:
            raise ValueError("the ideal handed to the integrator is not "
                             "differential")
        if m == Membership.INCONCLUSIVE:
            warnings.append("differential-ideal precondition inconclusive")
    target = len(ideal)
    bindings = _p0_bindings(vars0, p0)
    found = []          # anchored components, in the order found
    found_rows = []     # numeric dF rows at p0

    def try_add(comp: Expr):
        if not numlin.extend_basis(found_rows, [_row_at(comp, p0)]):
            return False
        found.append(_anchor(comp, bindings))
        return True

    def try_form(form: KForm):
        """Integrate a closed one-form whose row at p0 raises the rank: a
        potential F has dF = form exactly, so the form's row is dF's.  A
        form undefined at p0 is skipped if it has no potential, else F's
        row raises."""
        try:
            row = form.at(p0)
        except DomainError:
            F = poincare_potential(form)
            if F is not None:
                try_add(F)
            return
        if numlin.extend_basis(found_rows, [row]):
            F = poincare_potential(form)
            if F is None:
                found_rows.pop()
            else:
                found.append(_anchor(F, bindings))

    def found_echelon():
        rows = [[dc.coefficient((i,)) for i in range(vars0.total)]
                for dc in (d_of_function(c) for c in found)]
        return rref_function_field(rows, p0)

    def residual(g, echelon):
        """g reduced against the echelon rows, in primitive form."""
        target_row = [g.coefficient((i,)) for i in range(vars0.total)]
        rem = reduce_against_rows(target_row, *echelon)
        rem = _row_primitive(_clear_denominators_row(rem))
        return KForm(vars0, 1, {(i,): c for i, c in enumerate(rem)
                                if not c.is_structural_zero()})

    # layer: generators that are already exact
    for g in ideal.generators:
        if len(found) == target:
            break
        if exterior_derivative(g).is_structural_zero():
            try_form(g)
    # layer: closed polynomial-coefficient combinations
    if len(found) < target:
        for form in _closed_combinations(ideal, combo_degree):
            if len(found) == target:
                break
            try_form(form)
    # layer: integrating factors on the generators' residuals against the
    # components found before this layer
    if len(found) < target:
        echelon = found_echelon() if found else None
        for g in ideal.generators:
            if len(found) == target:
                break
            rest = residual(g, echelon) if echelon else g
            if rest.is_structural_zero():
                continue
            candidate = _integrating_factor_candidate(rest)
            if candidate is not None:
                try_form(candidate)
    # layer: user hints
    for hint in hints:
        if len(found) == target:
            warnings.append(f"hint '{hint}' unused: span already complete")
            continue
        m = ideal_membership(d_of_function(hint), ideal)
        if m == Membership.NON_MEMBER:
            raise HintRejected(
                f"hint '{hint}' has differential outside the target ideal")
        if m == Membership.INCONCLUSIVE:
            warnings.append(f"hint '{hint}' membership inconclusive; skipped")
            continue
        if not try_add(hint):
            warnings.append(f"hint '{hint}' is rank-redundant; skipped")

    if len(found) < target:
        echelon = found_echelon()
        residuals = [repr(form) for form in
                     (residual(g, echelon) for g in ideal.generators)
                     if not form.is_structural_zero()]
        raise IntegrationFailed(
            f"integrated {len(found)} of {target} directions; residual "
            f"generators need hints: {residuals}", residual=residuals, k=k)

    if ls is not None:
        return _classify_and_order(found, ls, k)
    return SmoothMapAdapted(found, 0, k if k is not None else -1)


def _classify_and_order(comps, ls: LiftedSystem, k):
    """Order components [vanishing-on-L (t last)] ++ [rest]."""
    t_expr = Expr.var_index(ls.vars, 0)
    van, rest = [], []
    t_present = False
    for c in comps:
        if c == t_expr:
            t_present = True
            continue
        # c vanishes on L when its restriction to t = 0 vanishes on N
        if ls.base.vanishes_on_N(c.substitute({0: 0})) == Zeroness.ZERO:
            van.append(c)
        else:
            rest.append(c)
    if t_present:
        van.append(t_expr)
    return SmoothMapAdapted(van + rest, len(van), k if k is not None else -1)


# ---------------------------------------------------------------------------
# adaptation
# ---------------------------------------------------------------------------

def adapt_to_L(F: SmoothMapAdapted, ls: LiftedSystem, target_vanish: int,
               degree: int = 2, samples=None,
               warnings=None) -> SmoothMapAdapted:
    """Rewrite the map so exactly `target_vanish` leading components vanish
    on L, preserving the span of the differentials.

    F's leading `vanish_count` components are those that vanish on L, as
    `frobenius_integrate` (given `ls`) and `adapt_subordinate` leave them.
    New vanishing components are polynomial combinations (total degree <=
    `degree`, constants allowed) of the non-vanishing components, found by
    restricting to L and solving for the rational nullspace.
    """
    vars0 = ls.vars
    p0 = ls.p0
    sys = ls.base
    warnings = warnings if warnings is not None else []
    ell = len(F.components)
    if target_vanish > ell:
        raise AdaptationFailed(
            f"target vanish count {target_vanish} exceeds the component "
            f"count {ell}", k=F.k)
    have = F.vanish_count
    if have > target_vanish:
        raise AdaptationFailed(
            f"{have} components already vanish on L, more than the expected "
            f"{target_vanish}; the rank data is inconsistent", k=F.k)
    needed = target_vanish - have
    if needed == 0:
        return F
    pool = F.non_vanishing()
    mono_exprs = _monomials(pool, degree)
    bindings, leftovers = sys.reduction()
    if not leftovers:
        restricted = [e.substitute({0: 0}).substitute(bindings)
                      for e in mono_exprs]
        # one shared multiplier keeps the vanishing conditions equivalent
        if not all(e.is_polynomial() for e in restricted):
            common = Expr.one(vars0)
            for e in restricted:
                if not e.is_polynomial():
                    common = common * e.denominator()
            restricted = [e * common for e in restricted]
        one = Expr.one(vars0)
        rows = _collect_linear_system([((), e, one)] for e in restricted)
        null = numlin.rational_nullspace(rows, len(mono_exprs))
    else:
        if samples is None:
            raise AdaptationFailed(
                "defining functions are not solvable and no samples were "
                "provided for the sample-nullspace fallback", k=F.k)
        A = np.array([[float(e.eval(p)) for e in mono_exprs]
                      for p in samples])
        null = [[Fraction(x).limit_denominator(10 ** 6) for x in vec]
                for vec in numlin.null_basis(A)]
    vanishing = []  # the combinations read so far that vanish on L

    def vanishing_rows():
        for vec in null:
            comb = Expr.zero(vars0)
            for c, mono in zip(vec, mono_exprs):
                if c:
                    comb = comb + mono * c
            if comb.is_structural_zero() or comb.as_rational() is not None:
                continue
            if sys.certify_vanishing(
                    comb.substitute({0: 0}), samples, warnings,
                    lambda: f"vanishing of adapted component '{comb}' "
                            "rests on samples only"):
                vanishing.append(comb)
                yield _row_at(comb, p0)

    rows = [_row_at(c, p0) for c in F.vanishing()]
    new_comps = [vanishing[i] for i in numlin.extend_basis(
        rows, vanishing_rows(), limit=have + needed)]
    if len(new_comps) < needed:
        raise AdaptationFailed(
            f"no degree-<={degree} combination closes the vanishing block "
            f"({len(new_comps)} of {needed} found); raise the ansatz degree "
            "or supply hints", k=F.k)
    # completion: keep enough old non-vanishing components for full rank
    vanish_block = new_comps + F.vanishing()
    rows = rows[have:] + rows[:have]        # in vanish_block order
    comps = vanish_block + [pool[i] for i in numlin.extend_basis(
        rows, (_row_at(c, p0) for c in pool))]
    if len(comps) != ell or numlin.rank(np.vstack(rows)) != ell:
        raise AdaptationFailed(
            "adapted map lost rank; the combination consumed more "
            "directions than it added", k=F.k)
    return SmoothMapAdapted(comps, target_vanish, F.k)


def adapt_subordinate(F: SmoothMapAdapted, h, kappa, ls: LiftedSystem,
                      k: int) -> SmoothMapAdapted:
    """Rewrite F so each h^i and its Lie derivatives L_f^j h^i with
    kappa_i - j > k appear verbatim in the vanishing block, keeping the span
    of the differentials."""
    if not h:
        return F
    sys = ls.base
    vars0 = ls.vars
    p0 = ls.p0
    towers = []
    for hi, ki in zip(h, kappa):
        if ki <= k:
            raise AdaptationFailed(
                f"output component with relative degree {ki} cannot be "
                f"subordinate at level {k}", k=k)
        towers += sys.tower(hi, ki - k)
    span = PfaffianIdeal([d_of_function(c) for c in F.components], p0,
                         "map-span")
    for entry in towers:
        if ideal_membership(d_of_function(entry), span) != Membership.MEMBER:
            raise AdaptationFailed(
                f"tower entry '{entry}' has differential outside the map "
                "span; flag data corrupted", k=k)
    t_expr = Expr.var_index(vars0, 0)
    # vanishing non-tower components that stay independent of the towers
    others = [c for c in F.vanishing() if c != t_expr and c not in towers]
    rows = [_row_at(c, p0) for c in towers]
    comps = [others[i] for i in numlin.extend_basis(
        rows, (_row_at(c, p0) for c in others))] + towers + [t_expr]
    vanish_count = len(comps)
    rows = rows[len(towers):] + rows[:len(towers)] + [_row_at(t_expr, p0)]
    for i in numlin.extend_basis(rows, (_row_at(c, p0) for c in F.components),
                                 limit=len(F.components)):
        comps.append(F.components[i])
    if len(comps) != len(F.components):
        raise AdaptationFailed(
            "subordination lost rank while rebuilding the component list",
            k=k)
    return SmoothMapAdapted(comps, vanish_count, F.k)
