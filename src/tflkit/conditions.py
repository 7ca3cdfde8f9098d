"""Transverse controllability indices and the three TFL conditions.

Every condition is pointwise: the dimension of Ann(T_pL) intersected with
span{I^(k)_p, dt_p} or with the span of its differential closure.  (Con)
asks the terminal intersection at p0 to be the dt line only; (Inv) asks
each raw intersection to fall inside the closure's, which, a closure being
a sub-ideal of its ideal, is the two having equal dimension; (Dim) asks
the raw dimensions at sampled points of L to equal those at p0.  The last
two are certified at p0 plus a finite sample set, a documented soundness
gap: pointwise conditions on an open set are not finitely decidable.
Where `reduction()` solves N, the samples are exact points of N
(`sample_on_N`); only a reduction with leftovers or a parametrization
takes Newton projection, whose iterates evaluate N alone.

A point table (`_PointTable`) holds these dimensions, at p0 and
at each distinct sample (on a point target every sample is the point the
reduction binds, so the samples share one point; p0 keeps its own).
All points are decided by one batched call, `numlin.intersection_dims`:
at each point, Ann(T_pL), built once per point, against the span of every
ideal the run reads, with Ann's own rank checked from the same call.
`evaluate_conditions` builds one table per run and reads (Con), (Inv),
(Dim) and the indices from it.  Most levels are closed (the derived step
of I^(k) found <I^(k), dt> differential, see `Flag`), so span{I^(k)_p,
dt_p} serves as the closure's span too; it comes from I^(k)'s own rows and
the dt row (`Flag.with_dt`).  Only a level that is not closed builds its
closure, once per distinct flag entry (`Flag.closure`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DomainError, RankDeficientN, SamplingFailed,
                     TflError)
from .expr import Point
from .lift import ControlSystem, LiftedSystem, ann_tangent_L
from .pfaffian import Flag, _span_with_dt
from . import numlin

__all__ = [
    "IndexProfile",
    "ConditionReport",
    "sample_on_N",
    "evaluate_conditions",
]

_ATTEMPTS_PER_SAMPLE = 25
_GRID = 2 ** 20     # exact samples offset x0 by multiples of 1/_GRID


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
    dim_table: dict
    inv_detail: dict
    samples_used: list
    warnings: list

    @property
    def all_hold(self):
        return self.con and self.inv and self.dim


def sample_on_N(sys: ControlSystem, count: int, radius: float = 0.1,
                seed: int = 0):
    """Points of M (t = 0, u = u*(x)) on N near x0, deterministic under a
    fixed seed.

    Where `reduction()` solves every defining function and there is no
    parametrization, the points are exact: each free state is x0's plus a
    Gaussian offset rounded to a multiple of `_GRID`, each bound state its
    binding evaluated there and u = u*(x), so a kernel-free N and u* give
    rational points on N itself.  A draw at which a binding is undefined
    is discarded.  On a point target every sample is the point the
    bindings define, and nothing is drawn.  Elsewhere the points are
    Newton projections of Gaussian perturbations of x0; an attempt that
    does not drive every defining function below 1e-12 within 50 steps,
    or that meets an iterate where a defining function or its gradient
    is undefined, is discarded.  The iterates evaluate N and its
    gradients only, and u = u*(x) is evaluated at each accepted point.
    At most `_ATTEMPTS_PER_SAMPLE * count` attempts are made.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = random.Random(seed)
    bindings, leftovers = sys.reduction()
    if leftovers or sys.parametrization is not None:
        return _newton_samples(sys, count, radius, rng)
    n, first = sys.vars.n, 1 + sys.vars.m
    free = [i for i in range(n) if first + i not in bindings]
    out = []
    attempts = 0
    while len(out) < count and attempts < _ATTEMPTS_PER_SAMPLE * count:
        attempts += 1
        vals = [Fraction(0)] * first + sys.x0
        if free:
            # one draw per state, as a Newton attempt takes
            draws = [rng.gauss(0.0, radius) for _ in range(n)]
            for i in free:
                vals[first + i] += Fraction(round(draws[i] * _GRID), _GRID)
        p = Point(sys.vars, vals)
        try:
            for i, b in bindings.items():
                vals[i] = b.eval(p)
        except DomainError:
            continue
        out.append(_state_point(sys, vals[first:]))
        if not free:
            return out * count
    if len(out) < count:
        raise SamplingFailed(
            f"exact sampling produced {len(out)}/{count} points on N: the "
            "reduction of N is undefined at the other draws near x0")
    return out


def _newton_samples(sys: ControlSystem, count, radius, rng):
    """Newton projections onto N of Gaussian perturbations of x0.  An
    attempt at whose iterate a defining function or its gradient is
    undefined is discarded; u* is evaluated only at the accepted point."""
    x0 = np.array([float(v) for v in sys.x0])
    grads = [sys.state_grad(phi) for phi in sys.N_defs]
    out = []
    attempts = 0
    while len(out) < count and attempts < _ATTEMPTS_PER_SAMPLE * count:
        attempts += 1
        x = x0 + np.array([rng.gauss(0.0, radius) for _ in range(len(x0))])
        try:
            xs = _newton_project(sys, grads, x)
        except DomainError:
            continue
        if xs is not None:
            out.append(_state_point(sys, xs))
    if len(out) < count:
        raise SamplingFailed(
            f"Newton projection produced {len(out)}/{count} points on N")
    return out


def _newton_project(sys: ControlSystem, grads, x):
    """The state values of the first of 50 Newton iterates from x at
    which every defining function of N is below 1e-12 in absolute value,
    or None.  The defining functions and their gradients are state-only,
    so each iterate is evaluated with t and u at 0, and u* is never
    evaluated."""
    head = [0.0] * (1 + sys.vars.m)
    for _ in range(50):
        xs = [float(xi) for xi in x]
        p = Point(sys.vars, head + xs)
        vals = np.array([float(phi.eval(p)) for phi in sys.N_defs])
        if np.max(np.abs(vals)) <= 1e-12:
            return xs
        J = np.array([[float(g.eval(p)) for g in row] for row in grads])
        step, *_ = np.linalg.lstsq(J, vals, rcond=None)
        x = x - step
    return None


def _state_point(sys: ControlSystem, x):
    """Full point of M for state values x: t = 0, u = u*(x), exact where
    x and u* allow it."""
    exact = all(isinstance(v, Fraction) for v in x)
    vals = [Fraction(0) if exact else 0.0] * (1 + sys.vars.m) + list(x)
    p = Point(sys.vars, vals)
    for j, us in enumerate(sys.u_star):
        try:
            v = us.eval(p)
            fv = float(v)
        except OverflowError:
            raise DomainError(
                f"u_star is beyond float range near x0: its "
                f"{sys.vars.input_names[j]} component is '{us}'") from None
        vals[1 + j] = v if exact else fv
    return Point(sys.vars, vals)


def _closure_span(flag: Flag, k):
    """An ideal whose rows at a point, with the dt row, span the closure of
    <I^(k), dt> there: I^(k) itself at a closed level."""
    return flag.with_dt(k) if flag.closed(k) else flag.closure(k)


class _PointTable:
    """The dimensions of one run, at p0 (point 0) and each distinct
    sample.  Equal values give equal matrices, so a repeated sample
    decides nothing new and no tolerance is involved; p0 is never merged
    with a sample, even an exact one with its values.  At a rational
    point each kernel-free entry is evaluated on `Point.integer_form`'s
    integer path.  Ideals are keyed by identity.

    Every point is decided on construction for each of `spans`, all
    points in one batch, one SVD call whatever the sample count; a pair
    read later is decided as a batch of one."""

    def __init__(self, ls: LiftedSystem, samples, spans):
        self.ls = ls
        self.nn = ls.vars.n - ls.base.n_star
        self.points = [ls.p0]
        self.sample_points = []     # the index in `points` of each sample
        first = {}
        for p in samples:
            if p.values not in first:
                first[p.values] = len(self.points)
                self.points.append(p)
            self.sample_points.append(first[p.values])
        self._anns, self._dims = {}, {}
        if spans:
            self._decide(range(len(self.points)), spans)

    def _decide(self, points, ideals):
        """dim( Ann(T_pL)  intersect  span{ideal_p, dt_p} ) at each of
        `points` for each of `ideals`, in one batched SVD.  Point by point:
        the on_L check and Ann's rows (on the point's first decision), then
        each ideal's span in order; then the ranks, which must give each
        point's Ann full rank.  A point whose matrices cannot be built ends
        the batch, and the points before it are decided first, so that the
        error reported is the first point's, as deciding the points one by
        one would report."""
        anns, spans = {}, {}
        error = None
        for i in points:
            p = self.points[i]
            try:
                if i not in self._anns:
                    self._anns[i] = ann_tangent_L(self.ls, p)
                spans[i] = [_span_with_dt(ideal, p) for ideal in ideals]
            except TflError as exc:     # raised once the points before
                error = exc             # it are decided
                break
            anns[i] = self._anns[i]
        decided = numlin.intersection_dims(anns, spans) if anns else {}
        for i, (rank, dims) in decided.items():
            if rank != len(anns[i]):
                raise RankDeficientN("Ann(T_pL) rows drop rank at the point")
            self._dims.update(((ideal, i), d)
                              for ideal, d in zip(ideals, dims))
        if error is not None:
            raise error

    def dim(self, ideal, i):
        """dim( Ann(T_pL)  intersect  span{ideal_p, dt_p} ) at point i."""
        if (ideal, i) not in self._dims:
            self._decide([i], [ideal])
        return self._dims[ideal, i]

    def row(self, span, i):
        """The dimensions at point i of span(k) for k = 0..n-n*."""
        return [self.dim(span(k), i) for k in range(self.nn + 1)]

    def con(self, flag):
        """(Con): both sides hold the dt row, so the terminal intersection
        at p0 always holds the dt line, and (Con) is its being 1-dim."""
        return self.dim(_closure_span(flag, self.nn), 0) == 1

    def inv(self, flag):
        """(Inv) per level: "differential", "holds" or "fails"."""
        # closure equal to the ideal makes containment trivial
        levels = [k for k in range(self.nn + 1)
                  if flag.closure_size(k) != len(flag.with_dt(k)) + 1]
        failed = set()
        for i in range(len(self.points)):
            for k in levels:
                if k not in failed and (self.dim(flag.with_dt(k), i)
                                        != self.dim(flag.closure(k), i)):
                    failed.add(k)
        return {k: "differential" if k not in levels
                else "fails" if k in failed else "holds"
                for k in range(self.nn + 1)}

    def dim_table(self, flag):
        table = {"p0": self.row(flag.with_dt, 0)}
        for s, i in enumerate(self.sample_points):
            table[f"sample{s}"] = self.row(flag.with_dt, i)
        return table


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


def _dims_constant(table):
    """(Dim) read off a dimension table: every row equals the p0 row."""
    return all(row == table["p0"] for row in table.values())


def evaluate_conditions(ls: LiftedSystem, flag: Flag, n_samples: int = 8,
                        seed: int = 0) -> ConditionReport:
    """Run (Con), (Inv), (Dim) and the index computation in one sweep."""
    nn = ls.vars.n - ls.base.n_star
    # every level is read before sampling, in order, as augmenting each one
    # was: a dt dependent on I^(k) at p0, or a closure that fails, is the
    # error a run reports
    closures = [_closure_span(flag, k) for k in range(nn + 1)]
    # the distinct spans the conditions read, in level order
    spans = list(dict.fromkeys(span for k in range(nn + 1)
                               for span in (flag.with_dt(k), closures[k])))
    samples = sample_on_N(ls.base, n_samples, seed=seed)
    table = _PointTable(ls, samples, spans)
    warnings = []
    con = table.con(flag)
    inv_detail = table.inv(flag)
    inv = "fails" not in inv_detail.values()
    dims = table.dim_table(flag)
    # under (Inv) the closures meet Ann(T_p0 L) in the dimensions of the
    # raw ideals, which (Inv) has just compared, so the p0 row serves
    if not inv:
        warnings.append(
            "involutivity fails: indices computed from the raw ideals are "
            "advisory only")
    indices = _index_profile(dims["p0"], nn)
    if con and sum(indices.rho) != nn:
        warnings.append(
            f"controllability holds but sum(rho) = {sum(indices.rho)} != "
            f"{nn}; regularity of the flag is suspect")
    return ConditionReport(con=con, inv=inv, dim=_dims_constant(dims),
                           indices=indices, dim_table=dims,
                           inv_detail=inv_detail, samples_used=samples,
                           warnings=warnings)
