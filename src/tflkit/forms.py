"""Differential forms on the lifted manifold: k-forms, the wedge product
and the exterior derivative.

A k-form is a sparse map from strictly increasing coordinate-index tuples to
Expr coefficients; degree-0 forms wrap a single Expr under the empty tuple.
Every form is an immutable value.  tflkit works on the dual side only, so
it holds no vector fields; the primal fields and brackets that tests check
it against live in `tests/_brackets.py`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeOverflow
from .expr import Expr, Point, VariableSpace, float_at

__all__ = [
    "KForm",
    "wedge",
    "exterior_derivative",
    "coordinate_form",
    "d_of_function",
]


class KForm:
    """Sparse differential k-form with Expr coefficients."""

    __slots__ = ("vars", "degree", "terms")

    def __init__(self, vars: VariableSpace, degree: int, terms):
        self.vars = vars
        self.degree = degree
        clean = {}
        for idx, c in terms.items():
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} has wrong length")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index tuple {idx} not strictly increasing")
            if not c.is_structural_zero():
                clean[idx] = c
        self.terms = clean

    @classmethod
    def zero(cls, vars, degree=1):
        return cls(vars, degree, {})

    @classmethod
    def of_function(cls, e: Expr):
        return cls(e.vars, 0, {(): e})

    def coefficient(self, idx):
        return self.terms.get(tuple(idx), Expr.zero(self.vars))

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch in form addition")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            terms[idx] = terms[idx] + c if idx in terms else c
        return KForm(self.vars, self.degree, terms)

    def __sub__(self, other):
        return self + other.scale(Expr.rational(self.vars, -1))

    def scale(self, e: Expr):
        return KForm(self.vars, self.degree,
                     {idx: e * c for idx, c in self.terms.items()})

    def is_structural_zero(self):
        return not self.terms

    def at(self, p: Point):
        """One-forms only: the covector as a float row vector."""
        if self.degree != 1:
            raise ValueError("pointwise rows only defined for one-forms")
        row = np.zeros(self.vars.total)
        for (i,), c in self.terms.items():
            row[i] = float_at(c, p)
        return row

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.vars.names
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            base = "^".join(f"d{names[i]}" for i in idx) if idx else ""
            parts.append(f"({c}) {base}".strip())
        return " + ".join(parts)


def coordinate_form(vars, i):
    """dv_i"""
    if isinstance(i, str):
        i = vars.index(i)
    return KForm(vars, 1, {(i,): Expr.one(vars)})


def _merge_indices(a, b):
    """Merge two strictly increasing tuples; returns (tuple, sign) or None
    when an index repeats."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] moves left past the remaining len(a) - i entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def wedge(a: KForm, b: KForm) -> KForm:
    deg = a.degree + b.degree
    if deg > a.vars.total:
        raise DegreeOverflow(
            f"wedge degree {deg} exceeds manifold dimension {a.vars.total}")
    terms = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged = _merge_indices(ia, ib)
            if merged is None:
                continue
            idx, sign = merged
            c = ca * cb
            if sign < 0:
                c = -c
            terms[idx] = terms[idx] + c if idx in terms else c
    return KForm(a.vars, deg, terms)


def exterior_derivative(a: KForm) -> KForm:
    vars = a.vars
    terms = {}
    for idx, c in a.terms.items():
        for j in range(vars.total):
            dc = c.diff(j)
            if dc.is_structural_zero():
                continue
            merged = _merge_indices((j,), idx)
            if merged is None:
                continue
            full, sign = merged
            coeff = dc if sign > 0 else -dc
            terms[full] = terms[full] + coeff if full in terms else coeff
    return KForm(vars, a.degree + 1, terms)


def d_of_function(e: Expr) -> KForm:
    return exterior_derivative(KForm.of_function(e))
