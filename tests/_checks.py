"""Single-check faces of the conditions point table, for tests: each
builds its own `_PointTable` per call, so each decides one condition (or
one dimension, or the indices) on its own, where a run decides them all
from one table in `evaluate_conditions`.  A helper's table is given no
spans up front, so each (ideal, point) pair it reads is decided when it
is first read, as a batch of one; a run's table decides every pair of a
point in one batch."""

from tflkit.conditions import (IndexProfile, _PointTable, _closure_span,
                               _dims_constant, _index_profile)
from tflkit.expr import Point
from tflkit.lift import LiftedSystem
from tflkit.pfaffian import Flag, PfaffianIdeal


def intersection_dimension(ls: LiftedSystem, ideal: PfaffianIdeal,
                           p: Point) -> int:
    """dim( Ann(T_pL)  intersect  span{ideal_p, dt_p} )."""
    return _PointTable(ls, [p], []).dim(ideal, 1)


def rho_indices(ls: LiftedSystem, flag: Flag) -> IndexProfile:
    """rho_i = dim drop of Ann(T_p0 L) cap span{closure_i, dt} from level i
    to i+1; kappa = conjugate partition (the transverse controllability
    indices)."""
    table = _PointTable(ls, [], [])
    return _index_profile(
        table.row(lambda k: _closure_span(flag, k), 0), table.nn)


def check_con(ls: LiftedSystem, flag: Flag) -> bool:
    """Terminal intersection is the dt line only.  Both sides hold the dt
    row itself (Ann(T_pL) as the differential of t, the span as its added
    row), so the intersection always contains the dt line, and (Con) is
    its dimension being 1: the same batched SVD rank decision as (Dim)
    and the index profile.  At a closed level n - n* it is the raw
    dimension."""
    return _PointTable(ls, [], []).con(flag)


def check_dim(ls: LiftedSystem, flag: Flag, samples) -> bool:
    """Intersection dimensions at every sample equal their value at p0,
    for each level of the raw dt-augmented flag."""
    if not samples:
        raise ValueError("check_dim needs at least one sample")
    return _dims_constant(dim_table(ls, flag, samples))


def dim_table(ls: LiftedSystem, flag: Flag, samples):
    """dim(Ann(T_pL) cap <I^(k), dt>_p) for k = 0..n-n*, one row at p0
    and one at each sample; each distinct sample point is decided once."""
    return _PointTable(ls, samples, []).dim_table(flag)


def check_inv(ls: LiftedSystem, flag: Flag, samples, detail=None) -> bool:
    """Each intersection with the raw ideal span lies inside the closure's
    span, at p0 and at every sample, each distinct point once.  Levels
    whose dt-augmented ideal is already differential hold trivially and
    are skipped: the closed levels without building anything, and a level
    whose closure keeps every generator of <I^(k), dt>.  A level that
    fails is not read at the points after, so this helper, which decides
    each pair as it reads it, evaluates neither of its spans there; a
    run's table has decided every span at every point before (Inv) reads
    any.

    Decided by dimension.  The closure of <I^(k), dt> is a sub-ideal of it
    (each derived step checks that its generators stay in the parent), so
    span(closure_p) lies in span(raw_p), and Ann(T_pL) cap span(closure_p)
    in Ann(T_pL) cap span(raw_p).  The latter lies in Ann(T_pL), so it lies
    inside span(closure_p) exactly when it lies inside the former; given
    that inclusion, exactly when the two have equal dimension."""
    verdicts = _PointTable(ls, samples, []).inv(flag)
    if detail is not None:
        detail.update(verdicts)
    return "fails" not in verdicts.values()
