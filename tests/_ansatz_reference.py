"""Test-only references for the integrator, built the way `integrate` built
them before the closed-combination ansatz read packed terms and before a
closed form's row was tested ahead of its potential:
- `ansatz_rows`: one `KForm` two-form Q d(mu g) - dQ ^ (mu g) per
  (generator, mu) column, and one dense row of `Fraction`s per (2-form
  pair, monomial) read through `Expr.terms`;
- `potential_first_components`: the closed-generator and closed-combination
  layers of `frobenius_integrate`, each form integrated before its row is
  tested."""

from fractions import Fraction

from tflkit import numlin
from tflkit.expr import Expr
from tflkit.forms import d_of_function, exterior_derivative, wedge
from tflkit.integrate import (_anchor, _closed_combinations, _monomials,
                              _p0_bindings, _row_at, poincare_potential)


def _shared_denominator(ideal):
    """The product of the generators' distinct non-rational pivot
    coefficients."""
    vars0 = ideal.vars
    Q = Expr.one(vars0)
    seen = set()
    for g in ideal.generators:
        for v in range(vars0.total):
            c = g.coefficient((v,))
            if c.is_structural_zero():
                continue
            if c.as_rational() is None and c.key() not in seen:
                seen.add(c.key())
                Q = Q * c
            break
    return Q


def ansatz_rows(ideal, degree, plain):
    """(dense rows, column count) of the ansatz system of one pass, or
    None where the shared-denominator pass repeats the plain one."""
    vars0 = ideal.vars
    Q = Expr.one(vars0) if plain else _shared_denominator(ideal)
    dQ = d_of_function(Q)
    q_is_one = Q.as_rational() == 1
    if not plain and q_is_one:
        return None
    monos = _monomials([Expr.var_index(vars0, i)
                        for i in range(vars0.total)], degree)
    d_monos = [d_of_function(mu) for mu in monos]
    two_forms = []
    for g in ideal.generators:
        dg = exterior_derivative(g)
        if not q_is_one:
            dg = dg.scale(Q) - wedge(dQ, g)
            g = g.scale(Q)
        for mu, dmu in zip(monos, d_monos):
            two_forms.append(dg.scale(mu) + wedge(dmu, g))
    index = {}
    cols = []
    for w in two_forms:
        col = {}
        for key, e in w.terms.items():
            for c, mono in e.terms():
                col[index.setdefault((key, mono), len(index))] = c
        cols.append(col)
    rows = [[Fraction(0)] * len(cols) for _ in range(len(index))]
    for j, col in enumerate(cols):
        for i, c in col.items():
            rows[i][j] = c
    return rows, len(two_forms)


def potential_first_components(ideal, combo_degree=1):
    """The anchored components of the closed-generator and
    closed-combination layers, each candidate integrated first and kept
    when its potential's row raises the rank."""
    p0 = ideal.p0
    bindings = _p0_bindings(ideal.vars, p0)
    target = len(ideal)
    found, rows = [], []

    def candidates():
        for g in ideal.generators:
            if exterior_derivative(g).is_structural_zero():
                yield g
        yield from _closed_combinations(ideal, combo_degree)

    for form in candidates():
        if len(found) == target:
            break
        F = poincare_potential(form)
        if F is not None and numlin.extend_basis(rows, [_row_at(F, p0)]):
            found.append(_anchor(F, bindings))
    return found
