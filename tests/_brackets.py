"""The primal bracket modules, for tests: Lie derivatives and brackets of
vector fields, the control module U, the modules G^k and S^k and the
involutive closure of a field list.  tflkit works from the dual side (the
derived flag of the system ideal and its dt-augmented closures); these are
the reference the dual flag is checked against."""

from tflkit.errors import RegularityViolation
from tflkit.expr import Expr
from tflkit.forms import (KForm, VectorField, contract, coordinate_field,
                          exterior_derivative)
from tflkit.pfaffian import rref_function_field


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
        return KForm.of_function(lie_derivative(X, a.as_function()))
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
    out = list(ls.g)
    layer = list(ls.g)
    for _ in range(k):
        layer = [lie_bracket(ls.f, X) for X in layer]
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
    current = list(ls.g)
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
