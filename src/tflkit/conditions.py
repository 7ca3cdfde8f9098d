"""Transverse controllability indices and the three TFL conditions.

The controllability condition asks the annihilator of T_p0 L to meet the
span of the terminal ideal (plus dt) in the dt-line only; the involutivity
condition asks each such intersection to fall inside the corresponding
differential closure; the constant-dimensionality condition asks the
intersection dimensions to be the same at sampled points of L as at p0.
The last two are certified at p0 plus a finite sample set, which is a
documented soundness gap: pointwise conditions on an open set are not
finitely decidable.  Each closure is a sub-ideal of its ideal, so (Inv)
is the two intersections having equal dimension: every condition and the
indices are decided from `numlin.intersection_dim`.

Most levels are closed: the derived step of I^(k) has found <I^(k), dt>
differential (theta ^ (d(w_i) mod I) = 0 for theta = dt mod I, see
`Flag`), so it is its own closure.  span{I^(k)_p, dt_p} is built from
I^(k)'s own rows at p, with their dt coefficients left out, and the dt
row (`Flag.with_dt`), so no dt-augmented echelon is needed for it.  (Inv)
skips a closed level and (Con) reads its raw dimension; only a level that
is not closed builds its closure, once per distinct flag entry
(`Flag.closure`).  `evaluate_conditions` builds the dimension table once
and reads (Dim) off it.  Each distinct point is decided once:
samples with equal values (all of them on a point target, where Newton
projection returns x0) share one row, and p0 keeps its own.  At each such
point Ann(T_pL) is built once and each distinct ideal is intersected with
it once: the levels past the terminal index share the terminal entry and
copy its dimension.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SamplingFailed
from .expr import Point
from .lift import ControlSystem, LiftedSystem, ann_tangent_L
from .pfaffian import PfaffianIdeal, Flag, _span_with_dt
from . import numlin

__all__ = [
    "IndexProfile",
    "ConditionReport",
    "sample_on_N",
    "intersection_dimension",
    "compute_closures",
    "rho_indices",
    "check_con",
    "check_dim",
    "check_inv",
    "evaluate_conditions",
]

_ATTEMPTS_PER_SAMPLE = 25


@dataclass
class IndexProfile:
    rho: list
    kappa: list
    n_minus_nstar: int

    def __post_init__(self):
        assert all(self.kappa[i] >= self.kappa[i + 1]
                   for i in range(len(self.kappa) - 1))


@dataclass
class ConditionReport:
    con: bool
    inv: bool
    dim: bool
    indices: IndexProfile
    dim_table: dict = field(default_factory=dict)
    inv_detail: dict = field(default_factory=dict)
    samples_used: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def all_hold(self):
        return self.con and self.inv and self.dim


def sample_on_N(sys: ControlSystem, count: int, radius: float = 0.1,
                seed: int = 0):
    """Points of M (t = 0, u = u*(x)) on N near x0, by Newton projection of
    Gaussian perturbations of x0.

    Deterministic under a fixed seed; an attempt that does not drive every
    defining function below 1e-12 within 50 steps is discarded, and at most
    `_ATTEMPTS_PER_SAMPLE * count` are made.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = random.Random(seed)
    x0 = np.array([float(v) for v in sys.x0])
    grads = [sys.state_grad(phi) for phi in sys.N_defs]
    out = []
    attempts = 0
    while len(out) < count and attempts < _ATTEMPTS_PER_SAMPLE * count:
        attempts += 1
        x = x0 + np.array([rng.gauss(0.0, radius) for _ in range(len(x0))])
        for _ in range(50):
            p = _state_point(sys, x)
            vals = np.array([float(phi.eval(p)) for phi in sys.N_defs])
            if np.max(np.abs(vals)) <= 1e-12:
                out.append(p)
                break
            J = np.array([[float(g.eval(p)) for g in row] for row in grads])
            step, *_ = np.linalg.lstsq(J, vals, rcond=None)
            x = x - step
    if len(out) < count:
        raise SamplingFailed(
            f"Newton projection produced {len(out)}/{count} points on N")
    return out


def _state_point(sys: ControlSystem, x):
    """Full point of M for a state vector: t = 0, u = u*(x)."""
    vals = [0.0] * sys.vars.total
    for i, xi in enumerate(x):
        vals[1 + sys.vars.m + i] = float(xi)
    p = Point(sys.vars, vals)
    for j, us in enumerate(sys.u_star):
        try:
            vals[1 + j] = float(us.eval(p))
        except OverflowError:
            raise DomainError(
                f"u_star is beyond float range near x0: its "
                f"{sys.vars.input_names[j]} component is '{us}'") from None
    return Point(sys.vars, vals)


def intersection_dimension(ls: LiftedSystem, ideal: PfaffianIdeal,
                           p: Point) -> int:
    """dim( Ann(T_pL)  intersect  span{ideal_p, dt_p} )."""
    return _intersection_dims_at(ls, [ideal], p)[0]


def compute_closures(ls: LiftedSystem, flag: Flag, up_to: int):
    """Differential closures of <I^(k), dt> for k = 0..up_to, from the
    flag's memo; entries past the terminal index share the terminal
    closure.  Every one is built; the conditions read `_closure_span`
    instead, which builds only the closures of levels that are not
    closed."""
    return [flag.closure(k) for k in range(up_to + 1)]


def _closure_span(flag: Flag, k):
    """An ideal whose rows at a point, with the dt row, span the closure of
    <I^(k), dt> there: I^(k) itself at a closed level."""
    return flag.with_dt(k) if flag.closed(k) else flag.closure(k)


def _intersection_dims_at(ls, ideals, p):
    """intersection_dimension for each ideal at p, with Ann(T_pL) built
    once; an ideal that repeats in `ideals` is intersected once."""
    ann = ann_tangent_L(ls, p)
    dims = {}
    for ideal in ideals:
        if ideal not in dims:
            dims[ideal] = numlin.intersection_dim(ann,
                                                  _span_with_dt(ideal, p))
    return [dims[ideal] for ideal in ideals]


def rho_indices(ls: LiftedSystem, flag: Flag) -> IndexProfile:
    """rho_i = dim drop of Ann(T_p0 L) cap span{closure_i, dt} from level i
    to i+1; kappa = conjugate partition (the transverse controllability
    indices)."""
    nn = ls.vars.n - ls.base.n_star
    closures = [_closure_span(flag, k) for k in range(nn + 1)]
    return _index_profile(_intersection_dims_at(ls, closures, ls.p0), nn)


def _index_profile(dims, nn):
    """rho and kappa from the p0 intersection dimensions of levels
    0..nn."""
    rho_full = [dims[i] - dims[i + 1] for i in range(nn)]
    kappa1 = sum(1 for r in rho_full if r >= 1)
    rho0 = rho_full[0] if rho_full else 0
    kappa = [sum(1 for r in rho_full if r >= i) for i in range(1, rho0 + 1)]
    keep = min(kappa1, nn - 1) if nn > 0 else 0
    rho = rho_full[:keep + 1]
    return IndexProfile(rho=rho, kappa=kappa, n_minus_nstar=nn)


def check_con(ls: LiftedSystem, flag: Flag) -> bool:
    """Terminal intersection is the dt line only.  Both sides hold the dt
    row itself (Ann(T_pL) as the differential of t, the span as its added
    row), so the intersection always contains the dt line, and (Con) is
    its dimension being 1: the same SVD rank decision as (Dim) and the
    index profile.  At a closed level n - n* it is the raw dimension."""
    nn = ls.vars.n - ls.base.n_star
    return intersection_dimension(ls, _closure_span(flag, nn), ls.p0) == 1


def check_dim(ls: LiftedSystem, flag: Flag, samples) -> bool:
    """Intersection dimensions at every sample equal their value at p0,
    for each level of the raw dt-augmented flag."""
    if not samples:
        raise ValueError("check_dim needs at least one sample")
    return _dims_constant(dim_table(ls, flag, samples))


def _dims_constant(table):
    """(Dim) read off a dimension table: every row equals the p0 row."""
    return all(row == table["p0"] for row in table.values())


def dim_table(ls: LiftedSystem, flag: Flag, samples):
    """dim(Ann(T_pL) cap <I^(k), dt>_p) for k = 0..n-n*, one row at p0
    and one at each sample; each distinct sample point is decided once."""
    nn = ls.vars.n - ls.base.n_star
    ideals = [flag.with_dt(k) for k in range(nn + 1)]
    table = {"p0": _intersection_dims_at(ls, ideals, ls.p0)}
    rows = {p.values: _intersection_dims_at(ls, ideals, p)
            for p in _distinct(samples)}
    for i, p in enumerate(samples):
        table[f"sample{i}"] = list(rows[p.values])
    return table


def _distinct(samples):
    """The samples without repeats, in order.  Equal values give equal
    matrices, so a repeated point decides nothing new, and no tolerance is
    involved.  p0 is never merged with a sample: it is the exact point."""
    first = {}
    for p in samples:
        first.setdefault(p.values, p)
    return list(first.values())


def check_inv(ls: LiftedSystem, flag: Flag, samples, detail=None) -> bool:
    """Each intersection with the raw ideal span lies inside the closure's
    span, at p0 and at every sample, each distinct point once.  Levels
    whose dt-augmented ideal is already differential hold trivially and
    are skipped: the closed levels without building anything, and a level
    whose closure keeps every generator of <I^(k), dt>.

    Decided by dimension.  The closure of <I^(k), dt> is a sub-ideal of it
    (each derived step checks that its generators stay in the parent), so
    span(closure_p) lies in span(raw_p), and Ann(T_pL) cap span(closure_p)
    in Ann(T_pL) cap span(raw_p).  The latter lies in Ann(T_pL), so it lies
    inside span(closure_p) exactly when it lies inside the former; given
    that inclusion, exactly when the two have equal dimension."""
    nn = ls.vars.n - ls.base.n_star
    # closure equal to the ideal makes containment trivial
    levels = {k: (flag.with_dt(k), flag.closure(k)) for k in range(nn + 1)
              if flag.closure_size(k) != len(flag.with_dt(k)) + 1}
    failed = set()
    for p in [ls.p0] + _distinct(samples):
        pending = [k for k in levels if k not in failed]
        if not pending:
            break
        # the raw ideals, then their closures, in one call
        dims = _intersection_dims_at(
            ls, [levels[k][j] for j in (0, 1) for k in pending], p)
        failed.update(k for i, k in enumerate(pending)
                      if dims[i] != dims[len(pending) + i])
    if detail is not None:
        for k in range(nn + 1):
            detail[k] = ("differential" if k not in levels
                         else "fails" if k in failed else "holds")
    return not failed


def evaluate_conditions(ls: LiftedSystem, flag: Flag, n_samples: int = 8,
                        seed: int = 0) -> ConditionReport:
    """Run (Con), (Inv), (Dim) and the index computation in one sweep."""
    nn = ls.vars.n - ls.base.n_star
    # every level is read before sampling, in order, as augmenting each one
    # was: a dt dependent on I^(k) at p0, or a closure that fails, is the
    # error a run reports
    for k in range(nn + 1):
        _closure_span(flag, k)
    samples = sample_on_N(ls.base, n_samples, seed=seed)
    warnings = []
    con = check_con(ls, flag)
    inv_detail = {}
    inv = check_inv(ls, flag, samples, detail=inv_detail)
    table = dim_table(ls, flag, samples)
    # under (Inv) the closures meet Ann(T_p0 L) in the dimensions of the
    # raw ideals, which check_inv has just compared, so the p0 row serves
    if not inv:
        warnings.append(
            "involutivity fails: indices computed from the raw ideals are "
            "advisory only")
    indices = _index_profile(table["p0"], nn)
    if con and sum(indices.rho) != nn:
        warnings.append(
            f"controllability holds but sum(rho) = {sum(indices.rho)} != "
            f"{nn}; regularity of the flag is suspect")
    return ConditionReport(con=con, inv=inv, dim=_dims_constant(table),
                           indices=indices, dim_table=table,
                           inv_detail=inv_detail, samples_used=samples,
                           warnings=warnings)
