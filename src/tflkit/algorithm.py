"""The transverse feedback linearization driver.

Walks the flag from k = kappa_1 down to 1, integrating a closure and
harvesting new vanishing components exactly at the distinct transverse
controllability indices, builds the nested zero-dynamics manifolds, verifies
the produced output by the direct Lie-derivative test and by the dual
membership test, asserts that the final zero-dynamics manifold is N, and
assembles the normal-form transformation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import (CertificateMismatch, CompletionFailed, DomainError,
                     IndependenceViolation)
from .expr import Expr, Zeroness
from .forms import d_of_function
from .lift import ControlSystem, LiftedSystem, lift_system
from .pfaffian import (Membership, _span_with_dt, derived_flag,
                       ideal_membership)
from .conditions import ConditionReport, evaluate_conditions
from .integrate import (adapt_subordinate, adapt_to_L,
                        frobenius_integrate)
from . import numlin

__all__ = [
    "RelativeDegree",
    "NoRelativeDegree",
    "TransverseOutput",
    "ZeroDynFlag",
    "NormalFormData",
    "TFLReport",
    "vector_relative_degree",
    "dual_rd_check",
    "zero_dynamics_manifold",
    "run_tfl",
    "normal_form",
]


@dataclass
class RelativeDegree:
    kappa: list
    decoupling: np.ndarray


@dataclass
class NoRelativeDegree:
    reason: str


@dataclass
class TransverseOutput:
    components: list
    kappa: list
    decoupling: np.ndarray
    provenance: list = dfield(default_factory=list)


@dataclass
class ZeroDynFlag:
    """Manifolds Z^(kappa_1+1) down to Z^(1), one entry per level k holding
    the defining functions (empty list = the whole state space)."""
    levels: dict  # k -> list of Expr


@dataclass
class NormalFormData:
    xi: list          # list of towers, tower i = [h_i, L_f h_i, ...]
    eta: list         # completion coordinate functions
    alpha: list       # L_f^{kappa_i} h^i per output
    beta: np.ndarray  # decoupling matrix at x0 (rows = outputs)
    beta_sym: list    # symbolic decoupling rows
    jacobian_condition: float


@dataclass
class TFLReport:
    system_summary: dict
    conditions: ConditionReport
    flag_counts: tuple
    closure_counts: tuple
    output: TransverseOutput | None
    zero_dynamics: ZeroDynFlag | None
    normal_form: NormalFormData | None
    warnings: list = dfield(default_factory=list)

    @property
    def success(self):
        return self.conditions.all_hold and self.output is not None


def vector_relative_degree(sys: ControlSystem, h):
    """Direct Lie-derivative relative degree test at x0.

    kappa_i is the least r+1 for which some L_{g_j} L_f^r h^i is not the
    zero function; all lower mixed derivatives must be identically zero and
    the decoupling matrix must have full row rank at x0.  Inconclusive zero
    tests poison the certificate and yield NoRelativeDegree.
    """
    x0 = sys.x0_point()
    m = sys.vars.m
    n = sys.vars.n
    grads = np.array([sys.grad_at_x0(hi) for hi in h])
    if numlin.rank(grads) != len(h):
        raise IndependenceViolation(
            "output components have dependent differentials at x0")
    kappa = []
    rows = []
    for hi in h:
        cur = hi
        found = None
        for r in range(n + 1):
            lg = [sys.lie_g(j, cur) for j in range(m)]
            states = [lg_j.zeroness() for lg_j in lg]
            if any(z == Zeroness.INCONCLUSIVE for z in states):
                return NoRelativeDegree(
                    "a mixed Lie derivative has an inconclusive zero test")
            if any(z == Zeroness.NONZERO for z in states):
                found = r + 1
                try:
                    rows.append([float(lg_j.eval(x0)) for lg_j in lg])
                except OverflowError:
                    raise DomainError(
                        f"L_g L_f^{r} h of output '{hi}' at x0 is beyond "
                        "float range") from None
                break
            cur = sys.lie_f(cur)
        if found is None:
            return NoRelativeDegree(
                f"no input reaches output '{hi}' within {n} derivatives")
        kappa.append(found)
    D = np.array(rows)
    if numlin.rank(D) != len(h):
        return NoRelativeDegree(
            "decoupling matrix is row-rank deficient at x0")
    return RelativeDegree(kappa=kappa, decoupling=D)


def dual_rd_check(ls: LiftedSystem, flag, h, kappa1: int) -> bool:
    """Uniform dual test: dh^i in the closure of <I^(kappa1-1), dt> and
    span{dh}_p0 meeting span{I^(kappa1)_p0, dt_p0} trivially."""
    closure = flag.closure(kappa1 - 1)
    for hi in h:
        if ideal_membership(d_of_function(hi), closure) != Membership.MEMBER:
            return False
    dh_rows = np.array([d_of_function(hi).at(ls.p0) for hi in h])
    span = _span_with_dt(flag.with_dt(kappa1), ls.p0)
    return numlin.intersection_dim(dh_rows, span) == 0


def zero_dynamics_manifold(sys: ControlSystem, h, kappa):
    """Defining functions {L_f^j h^i : 0 <= j <= kappa_i - 1}."""
    defs = [e for hi, ki in zip(h, kappa) for e in sys.tower(hi, ki)]
    grads = np.array([sys.grad_at_x0(d) for d in defs])
    if numlin.rank(grads) != len(defs):
        raise IndependenceViolation(
            "zero-dynamics defining functions are dependent at x0")
    return defs


def _z_equals_n(sys: ControlSystem, z_defs, samples, warnings):
    """Local set equality of Z^(1) and N near x0.

    Checked here: the two have equal codimension, and every defining
    function of Z^(1) vanishes on N (by reduction when exact, at samples
    otherwise).  Checked before: N's defining functions have full rank at x0
    (`ControlSystem._validate`) and those of Z^(1) are independent at x0
    (`zero_dynamics_manifold`).  So N and Z^(1) are embedded submanifolds of
    equal dimension near x0 with N inside Z^(1); by invariance of domain N
    is open in Z^(1), and the two agree on a neighbourhood of x0."""
    if len(z_defs) != len(sys.N_defs):
        return False
    return all(sys.certify_vanishing(
        phi, samples, warnings,
        lambda: f"vanishing of '{phi}' on N certified by samples only")
        for phi in z_defs)


def normal_form(sys: ControlSystem, h, kappa) -> NormalFormData:
    """Lie-derivative towers, greedy coordinate completion, and the
    linearizing feedback data."""
    vars0 = sys.vars
    x0 = sys.x0_point()
    xi = [sys.tower(hi, ki) for hi, ki in zip(h, kappa)]
    alpha = [sys.lie_f(tower[-1]) for tower in xi]
    beta_sym = [[sys.lie_g(j, tower[-1]) for j in range(vars0.m)]
                for tower in xi]
    rows = [sys.grad_at_x0(c) for tower in xi for c in tower]
    states = [Expr.var_index(vars0, i) for i in vars0.state_indices()]
    eta = [states[i] for i in numlin.extend_basis(
        rows, (sys.grad_at_x0(c) for c in states), limit=vars0.n)]
    if len(rows) != vars0.n:
        raise CompletionFailed(
            "no coordinate completion reaches full rank at x0")
    jac = np.vstack(rows)
    cond = float(np.linalg.cond(jac))
    if numlin.rank(jac) != vars0.n:
        raise CompletionFailed("coordinate chart is singular at x0")
    beta = np.array([[float(b.eval(x0)) for b in row] for row in beta_sym])
    return NormalFormData(xi=xi, eta=eta, alpha=alpha, beta=beta,
                          beta_sym=beta_sym, jacobian_condition=cond)


def run_tfl(sys: ControlSystem, hints=None, n_samples=8, seed=0,
            ansatz_degree=2, combo_degree=1,
            conditions_only=False) -> TFLReport:
    """Execute the full algorithm and re-verify its certificate."""
    hints = {int(k): [e for e in v] for k, v in (hints or {}).items()}
    warnings = []
    ls = lift_system(sys)
    flag = derived_flag(ls.I0)
    nn = sys.vars.n - sys.n_star
    report_cond = evaluate_conditions(ls, flag, n_samples=n_samples,
                                      seed=seed)
    warnings.extend(report_cond.warnings)
    summary = {
        "n": sys.vars.n, "m": sys.vars.m, "n_star": sys.n_star,
        "states": list(sys.vars.state_names),
        "inputs": list(sys.vars.input_names),
    }
    base_report = dict(
        system_summary=summary, conditions=report_cond,
        flag_counts=flag.generator_counts(),
        closure_counts=tuple(flag.closure_size(k) for k in range(nn + 1)))
    if conditions_only or not report_cond.all_hold:
        return TFLReport(output=None, zero_dynamics=None, normal_form=None,
                         warnings=warnings, **base_report)

    rho = list(report_cond.indices.rho)
    kappa_target = list(report_cond.indices.kappa)
    kappa1 = kappa_target[0] if kappa_target else 0
    rho_at = lambda i: rho[i] if 0 <= i < len(rho) else 0
    samples = report_cond.samples_used

    h = []
    h_kappa = []
    h_prov = []
    z_levels = {kappa1 + 1: []}
    t_expr = Expr.var_index(sys.vars, 0)
    for k in range(kappa1, 0, -1):
        if rho_at(k - 1) == rho_at(k):
            z_levels[k] = z_levels[k + 1]
            continue
        mu = rho_at(k - 1) - rho_at(k)
        F = frobenius_integrate(flag.closure(k - 1), ls,
                                hints=hints.get(k - 1, ()),
                                combo_degree=combo_degree, warnings=warnings)
        F = adapt_subordinate(F, h, h_kappa, ls, k - 1)
        target_vanish = 1 + sum(rho_at(i) for i in range(k - 1, nn))
        F = adapt_to_L(F, ls, target_vanish, degree=ansatz_degree,
                       samples=samples, warnings=warnings)
        towers = [e for hi, ki in zip(h, h_kappa)
                  for e in sys.tower(hi, ki - k + 1)]
        new = [c for c in F.vanishing() if c != t_expr and c not in towers]
        if len(new) != mu:
            raise CertificateMismatch(
                f"expected {mu} new vanishing components at level {k}, "
                f"found {len(new)}")
        h = h + new
        h_kappa = h_kappa + [k] * mu
        h_prov = h_prov + [f"harvested at k={k}"] * mu
        rd = vector_relative_degree(sys, h)
        if isinstance(rd, NoRelativeDegree) or rd.kappa != h_kappa:
            got = None if isinstance(rd, NoRelativeDegree) else rd.kappa
            raise CertificateMismatch(
                f"loop invariant failed at level {k}: partial output has "
                f"relative degree {got}, expected {h_kappa}")
        z_levels[k] = zero_dynamics_manifold(sys, h, h_kappa)

    if sorted(h_kappa, reverse=True) != kappa_target:
        raise CertificateMismatch(
            f"harvested tower lengths {h_kappa} do not match the "
            f"transverse controllability indices {kappa_target}")

    # certificate closure: re-verify from scratch
    rd = vector_relative_degree(sys, h)
    if isinstance(rd, NoRelativeDegree):
        raise CertificateMismatch(f"final output rejected: {rd.reason}")
    if rd.kappa != h_kappa or sum(rd.kappa) != nn:
        raise CertificateMismatch(
            f"final relative degree {rd.kappa} does not certify; expected "
            f"{h_kappa} with sum {nn}")
    for hi in h:
        if not sys.certify_vanishing(
                hi, samples, warnings,
                lambda: f"vanishing of output '{hi}' on N certified by "
                        "samples only"):
            raise CertificateMismatch(f"output '{hi}' does not vanish on N")
    for c in sorted(set(h_kappa), reverse=True):
        group = [hi for hi, ki in zip(h, h_kappa) if ki == c]
        if not dual_rd_check(ls, flag, group, c):
            raise CertificateMismatch(
                f"dual relative-degree check fails for the kappa={c} group")
    if not _z_equals_n(sys, z_levels[1], samples, warnings):
        raise CertificateMismatch(
            "the final zero-dynamics manifold does not coincide with N")
    nf = normal_form(sys, h, h_kappa)
    output = TransverseOutput(components=h, kappa=h_kappa,
                              decoupling=rd.decoupling, provenance=h_prov)
    return TFLReport(output=output,
                     zero_dynamics=ZeroDynFlag(levels=z_levels),
                     normal_form=nf, warnings=warnings,
                     **base_report)

