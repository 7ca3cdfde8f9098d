"""The primal side, for tests: vector fields on the lifted manifold, the
plant's fields f, g_j and Y = d/dt + f + sum_j u_j g_j, the interior
product, Lie derivatives and brackets, the control module U, the modules
G^k and S^k and the involutive closure of a field list.  tflkit works from
the dual side only (the derived flag of the system ideal and its
dt-augmented closures) and holds no vector field; these are the
independent reference the dual flag is checked against, so nothing here is
shared with the package beyond forms and the echelon routine."""

import numpy as np

from tflkit.errors import RegularityViolation
from tflkit.expr import Expr, Point, VariableSpace, float_at
from tflkit.forms import KForm, exterior_derivative
from tflkit.pfaffian import rref_function_field


class VectorField:
    """Sum of components[i] * d/dv_i over the coordinates of the space."""

    __slots__ = ("vars", "components")

    def __init__(self, vars: VariableSpace, components):
        components = tuple(components)
        if len(components) != vars.total:
            raise ValueError(
                f"need {vars.total} components, got {len(components)}")
        self.vars = vars
        self.components = components

    @classmethod
    def from_state_components(cls, vars, state_components):
        """Lift a field on R^n: zero d/dt and d/du parts."""
        z = Expr.zero(vars)
        comps = [z] * (1 + vars.m) + list(state_components)
        return cls(vars, comps)

    def __add__(self, other):
        return VectorField(self.vars, [a + b for a, b in
                                       zip(self.components, other.components)])

    def __eq__(self, other):
        return (isinstance(other, VectorField)
                and self.components == other.components)

    def scale(self, e):
        return VectorField(self.vars, [e * c for c in self.components])

    def at(self, p: Point):
        return np.array([float_at(c, p) for c in self.components])

    def is_structural_zero(self):
        return all(c.is_structural_zero() for c in self.components)

    def __repr__(self):
        terms = [f"({c})*d/d{self.vars.names[i]}"
                 for i, c in enumerate(self.components)
                 if not c.is_structural_zero()]
        return " + ".join(terms) if terms else "0"


def coordinate_field(vars, i):
    """d/dv_i"""
    if isinstance(i, str):
        i = vars.index(i)
    comps = [Expr.zero(vars)] * vars.total
    comps[i] = Expr.one(vars)
    return VectorField(vars, comps)


def contract(X: VectorField, a: KForm) -> KForm:
    """Interior product i_X a."""
    if a.degree < 1:
        raise ValueError("contraction needs degree >= 1")
    terms = {}
    for idx, c in a.terms.items():
        for pos, i in enumerate(idx):
            xc = X.components[i]
            if xc.is_structural_zero():
                continue
            rest = idx[:pos] + idx[pos + 1:]
            coeff = xc * c
            if pos % 2:
                coeff = -coeff
            terms[rest] = terms[rest] + coeff if rest in terms else coeff
    return KForm(a.vars, a.degree - 1, terms)


def f_field(ls):
    """The drift f of the lifted system `ls`, as a field on M."""
    return VectorField.from_state_components(ls.vars, ls.base.f)


def g_fields(ls):
    """The input fields g_j of the lifted system `ls`, as fields on M."""
    return [VectorField.from_state_components(ls.vars, gj)
            for gj in ls.base.g]


def y_field(ls):
    """Y = d/dt + f + sum_j u_j g_j, the field the system ideal
    annihilates."""
    vars0 = ls.vars
    Y = coordinate_field(vars0, 0) + f_field(ls)
    for j, g in enumerate(g_fields(ls)):
        Y = Y + g.scale(Expr.var_index(vars0, 1 + j))
    return Y


def lie_derivative(X: VectorField, a):
    """Cartan's formula for forms; directional derivative for Expr/0-forms."""
    if isinstance(a, Expr):
        out = Expr.zero(a.vars)
        for i, comp in enumerate(X.components):
            if comp.is_structural_zero():
                continue
            out = out + comp * a.diff(i)
        return out
    if a.degree == 0:
        return KForm.of_function(lie_derivative(X, a.coefficient(())))
    return (contract(X, exterior_derivative(a))
            + exterior_derivative(contract(X, a)))


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    return VectorField(X.vars, [
        lie_derivative(X, Y.components[i]) - lie_derivative(Y, X.components[i])
        for i in range(X.vars.total)])


def u_module(ls):
    """The control module: d/du_j for each input."""
    return [coordinate_field(ls.vars, 1 + j) for j in range(ls.vars.m)]


def g_module(ls, k: int):
    """Generators ad_f^j g_i for 0 <= j <= k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    out = g_fields(ls)
    layer = list(out)
    f = f_field(ls)
    for _ in range(k):
        layer = [lie_bracket(f, X) for X in layer]
        out.extend(layer)
    return out


def _field_rows(fields):
    return [[c for c in X.components] for X in fields]


def reduce_fields(fields, p0):
    """Echelon-reduced generator list spanning the same module."""
    if not fields:
        return []
    vars0 = fields[0].vars
    rows, _ = rref_function_field(_field_rows(fields), p0)
    return [VectorField(vars0, r) for r in rows]


def s_module(ls, k: int):
    """S^0 = G^0; S^k = span{S^{k-1}, [S^{k-1}, S^{k-1}], G^k}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    current = g_fields(ls)
    for step in range(1, k + 1):
        brackets = []
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                b = lie_bracket(current[i], current[j])
                if not b.is_structural_zero():
                    brackets.append(b)
        gk = g_module(ls, step)
        current = reduce_fields(current + brackets + gk, ls.p0)
    return current


def involutive_closure(fields, p0):
    """Append pairwise brackets until the generic rank stabilizes, within
    as many rounds as the manifold has dimensions."""
    if not fields:
        return []
    basis = reduce_fields(fields, p0)
    rank = len(basis)
    for _ in range(fields[0].vars.total):
        brackets = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                b = lie_bracket(basis[i], basis[j])
                if not b.is_structural_zero():
                    brackets.append(b)
        new_basis = reduce_fields(basis + brackets, p0)
        if len(new_basis) == rank:
            return new_basis
        if len(new_basis) < rank:
            raise RegularityViolation("involutive closure lost rank")
        basis, rank = new_basis, len(new_basis)
    raise RegularityViolation(
        "involutive closure failed to stabilize within the round bound")
