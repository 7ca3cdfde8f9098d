"""Control systems and their lift to the time-control-state manifold: the
system ideal and the defining functions of the lifted target L.

The plant is control-affine with a target manifold N given by defining
functions, a base point x0 on N, and a feedback u* rendering N invariant.
Everything downstream works on the lifted manifold M = R x R^m x R^n whose
coordinates are (t, u, x) in that order, and on the dual side only: the
lift builds the one-forms of the system ideal, never the plant's vector
fields.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import (DomainError, InvarianceViolation, NotOnN, NotStateOnly,
                     PointNotOnL, RankDeficientN)
from .expr import Expr, Point, VariableSpace, Zeroness
from .forms import KForm, coordinate_form
from .pfaffian import PfaffianIdeal
from . import numlin

__all__ = [
    "ControlSystem",
    "LiftedSystem",
    "lift_system",
    "ann_tangent_L",
]

_VANISH_TOL = 1e-10


class ControlSystem:
    """Control-affine plant with target manifold data.

    f and the g_j are given by their state components; N_defs cut out the
    target manifold, x0 lies on it, and u_star renders it invariant.  All
    of them are expressions over the state variables only.  x0 is stored
    exactly, each coordinate as `Fraction(v)`, a float included.
    """

    def __init__(self, vars: VariableSpace, f, g, N_defs, x0, u_star,
                 parametrization=None):
        self.vars = vars
        self.f = list(f)
        self.g = [list(gj) for gj in g]
        self.N_defs = list(N_defs)
        self.u_star = list(u_star)
        self.parametrization = list(parametrization) if parametrization else None
        n, m = vars.n, vars.m
        if len(self.f) != n:
            raise ValueError(f"f needs {n} components")
        if len(self.g) != m or any(len(gj) != n for gj in self.g):
            raise ValueError(f"g needs {m} columns of {n} components")
        if len(self.u_star) != m:
            raise ValueError(f"u_star needs {m} components")
        if len(x0) != n:
            raise ValueError(f"x0 needs {n} coordinates")
        self.x0 = [Fraction(v) for v in x0]
        for e in (self.f + [c for gj in self.g for c in gj] + self.u_star
                  + self.N_defs):
            bad = [i for i in e.free_variables()
                   if i not in vars.state_indices()]
            if bad:
                raise NotStateOnly(
                    f"state-space data may only involve state variables, "
                    f"got {[vars.names[i] for i in bad]} in '{e}'")
        x0_bindings = {1 + m + i: Expr.rational(vars, v)
                       for i, v in enumerate(self.x0)}
        vals = [Fraction(0)] * (1 + m) + self.x0
        for j, us in enumerate(self.u_star):
            vals[1 + j] = us.substitute(x0_bindings).as_rational()
            if vals[1 + j] is None:
                raise DomainError(
                    f"u_star must be rational at x0, but its "
                    f"{vars.input_names[j]} component '{us}' is not")
        self._x0_point = Point(vars, vals)
        self._reduction = None
        self._binding_point = None
        # memos for the lifetime of this system: state gradients by
        # expression and their values at x0, Lie derivatives by (field,
        # expression)
        self._grads = {}
        self._grads_at_x0 = {}
        self._lie = {}
        self._validate()

    # -- geometry of N -------------------------------------------------------

    def x0_point(self):
        """x0 extended to a full point of M: t = 0, u = u*(x0)."""
        return self._x0_point

    @property
    def n_star(self):
        return self.vars.n - len(self.N_defs)

    def _build_reduction(self):
        """Solve the defining functions for variables that appear linearly
        with a rational coefficient; the resulting substitution chain
        restricts expressions to N exactly.  Defs that cannot be solved are
        kept for sample-based checking."""
        bindings = {}
        leftovers = []
        # t = 0 restriction for the lifted manifold is handled separately
        for phi in self.N_defs:
            phi = phi.substitute(bindings) if bindings else phi
            solved = False
            for i in sorted(phi.free_variables()):
                if i in bindings or i not in self.vars.state_indices():
                    continue
                c = self.state_grad(phi)[i - 1 - self.vars.m].as_rational()
                if c is None or c == 0:
                    continue
                rest = phi - Expr.var_index(self.vars, i) * c
                if rest.depends_on(i):
                    continue
                value = -(rest / c)
                # fold into existing bindings so the chain stays triangular
                bindings = {k: v.substitute({i: value})
                            for k, v in bindings.items()}
                bindings[i] = value
                solved = True
                break
            if not solved:
                leftovers.append(phi)
        return bindings, leftovers

    def reduction(self):
        if self._reduction is None:
            self._reduction = self._build_reduction()
            bindings, leftovers = self._reduction
            values = [bindings[i].as_rational() if i in bindings else None
                      for i in self.vars.state_indices()]
            if (not leftovers and self.parametrization is None
                    and None not in values):
                # N is the point the bindings define; t and u keep their
                # x0 values, which no state function reads
                self._binding_point = Point(
                    self.vars, self._x0_point.values[:1 + self.vars.m]
                    + tuple(values))
        return self._reduction

    def vanishes_on_N(self, e: Expr, samples=None):
        """Zero / NonZero / Inconclusive verdict for vanishing on N.

        Exact when the defining functions were fully solvable (the
        restriction is then a faithful substitution); otherwise the verdict
        combines the partial restriction with evaluation at on-manifold
        samples.  When N is a point, that substitution of constants is
        evaluation at the point, so a kernel-free state function is decided
        by `eval` there: at the point the bindings define, not at x0, which
        need only lie within _VANISH_TOL of N.
        """
        bindings, leftovers = self.reduction()
        q = self._binding_point
        if (q is not None and not e.kernels
                and all(i > self.vars.m for i in e.free_variables())):
            try:
                return (Zeroness.ZERO if e.eval(q) == 0
                        else Zeroness.NONZERO)
            except DomainError:
                pass    # the substitution below reports it
        restricted = e.substitute(bindings) if bindings else e
        z = restricted.zeroness()
        if not leftovers and self.parametrization is None:
            return z
        if z == Zeroness.ZERO:
            return z
        if self.parametrization is not None:
            par = {1 + self.vars.m + i: pe
                   for i, pe in enumerate(self.parametrization)}
            z2 = e.substitute(par).zeroness()
            return z2
        if samples:
            vals = [abs(float(e.eval(p))) for p in samples]
            if all(v <= _VANISH_TOL for v in vals):
                return Zeroness.INCONCLUSIVE
            return Zeroness.NONZERO
        return Zeroness.INCONCLUSIVE

    def certify_vanishing(self, e: Expr, samples, warnings, message):
        """Does e vanish on N?  False on a NONZERO verdict; otherwise True,
        and `message()` goes to `warnings` when the verdict rests on samples
        (INCONCLUSIVE), so the text is built only when it is emitted.  The
        one place a sampled verdict becomes a warning."""
        v = self.vanishes_on_N(e, samples=samples)
        if v == Zeroness.NONZERO:
            return False
        if v == Zeroness.INCONCLUSIVE:
            warnings.append(message())
        return True

    # -- Lie derivatives on the plant ----------------------------------------

    def state_grad(self, h: Expr):
        """[dh/dx_1, ..., dh/dx_n], taken once per distinct expression."""
        grad = self._grads.get(h)
        if grad is None:
            grad = self._grads[h] = [h.diff(i)
                                     for i in self.vars.state_indices()]
        return grad

    def _lie_derivative(self, j, h: Expr) -> Expr:
        """L_X h for X = f (j is None) or g_j, computed once per (j, h)."""
        out = self._lie.get((j, h))
        if out is None:
            field = self.f if j is None else self.g[j]
            out = Expr.zero(self.vars)
            for xi, dh in zip(field, self.state_grad(h)):
                if not dh.is_structural_zero():
                    out = out + xi * dh
            self._lie[(j, h)] = out
        return out

    def lie_f(self, h: Expr) -> Expr:
        return self._lie_derivative(None, h)

    def lie_g(self, j: int, h: Expr) -> Expr:
        return self._lie_derivative(j, h)

    def tower(self, h: Expr, length: int):
        """[h, L_f h, ..., L_f^(length-1) h]; empty when length <= 0."""
        out = [h][:length]
        while len(out) < length:
            out.append(self.lie_f(out[-1]))
        return out

    def grad_at_x0(self, h: Expr):
        """Row of state-partials of h at x0, evaluated once per distinct
        expression; each call returns a fresh array."""
        row = self._grads_at_x0.get(h)
        if row is None:
            try:
                row = self._grads_at_x0[h] = np.array(
                    [float(d.eval(self._x0_point))
                     for d in self.state_grad(h)])
            except OverflowError:
                raise DomainError(f"the gradient of '{h}' at x0 is beyond "
                                  "float range") from None
        return row.copy()

    # -- validation ----------------------------------------------------------

    def _validate(self):
        p = self.x0_point()
        for phi in self.N_defs:
            try:
                v = phi.eval(p)
            except OverflowError:   # a float evaluation, with kernels
                raise DomainError(f"the value of '{phi}' at x0 is beyond "
                                  "float range") from None
            if abs(v) > _VANISH_TOL:
                try:
                    size = f"= {float(v):g}"
                except OverflowError:
                    size = "is beyond float range"
                raise NotOnN(f"x0 is not on N: |{phi}| {size} there")
        jac = np.array([self.grad_at_x0(phi) for phi in self.N_defs])
        if len(self.N_defs) == 0 or len(self.N_defs) > self.vars.n:
            raise RankDeficientN(
                "N must have codimension between 1 and n")
        if numlin.rank(jac) != len(self.N_defs):
            raise RankDeficientN(
                "defining functions of N drop rank at x0")
        if self.parametrization is not None:
            par = {1 + self.vars.m + i: pe
                   for i, pe in enumerate(self.parametrization)}
            for phi in self.N_defs:
                if phi.substitute(par).zeroness() != Zeroness.ZERO:
                    raise NotOnN(
                        "parametrization does not satisfy the defining "
                        f"functions: {phi}")
        # invariance of N under the closed loop f + g u*
        for phi in self.N_defs:
            lphi = self.lie_f(phi)
            for j in range(self.vars.m):
                lphi = lphi + self.u_star[j] * self.lie_g(j, phi)
            verdict = self.vanishes_on_N(lphi)
            if verdict == Zeroness.NONZERO:
                raise InvarianceViolation(
                    f"u* does not render N invariant: L(f+g u*) of '{phi}' "
                    "does not vanish on N")


class LiftedSystem:
    """The plant lifted to M: the system ideal I0, generated by the
    one-forms omega_i = dx_i - (f_i + sum_j g_ji u_j) dt, which annihilate
    Y = d/dt + f + sum_j u_j g_j by construction, and the defining functions
    of L (t, then N's) with their differentials.  The fields f, g_j and Y
    themselves are never built: tflkit works on the dual side."""

    def __init__(self, base: ControlSystem):
        self.base = base
        self.vars = base.vars
        vars0 = base.vars
        m = vars0.m
        dt = coordinate_form(vars0, 0)
        omegas = []
        for i in range(vars0.n):
            drift = base.f[i]
            for j in range(m):
                drift = drift + base.g[j][i] * Expr.var_index(vars0, 1 + j)
            omegas.append(coordinate_form(vars0, 1 + m + i) - dt.scale(drift))
        self.omega = omegas
        self.p0 = base.x0_point()
        self.I0 = PfaffianIdeal(omegas, self.p0, "system")
        self.L_defs = [Expr.var_index(vars0, 0)] + list(base.N_defs)
        # d(phi) for each phi in L_defs: dt, then the state gradients of N's
        # defining functions (state functions, checked by ControlSystem)
        self.L_diffs = [dt] + [
            KForm(vars0, 1, {(i,): d for i, d in zip(vars0.state_indices(),
                                                      base.state_grad(phi))})
            for phi in base.N_defs]

    def on_L(self, p: Point):
        return all(abs(float(phi.eval(p))) <= _VANISH_TOL
                   for phi in self.L_defs)


def lift_system(sys: ControlSystem) -> LiftedSystem:
    return LiftedSystem(sys)


def ann_tangent_L(ls: LiftedSystem, p: Point):
    """The differentials of the defining functions of the lifted manifold,
    evaluated at p: rows spanning Ann(T_p L) where they are independent,
    which the caller checks (the conditions' point table reads their rank
    from the batch that decides the point)."""
    if not ls.on_L(p):
        raise PointNotOnL("point does not satisfy the defining functions of L")
    return np.array([w.at(p) for w in ls.L_diffs])
