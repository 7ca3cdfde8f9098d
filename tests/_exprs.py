"""Function forms of `Expr` methods, for tests, and a point built from a
name -> value map."""

from tflkit.expr import Expr, Point


def diff(e: Expr, v) -> Expr:
    return e.diff(v)


def substitute(e: Expr, bindings) -> Expr:
    return e.substitute(bindings)


def eval_at(e: Expr, p: Point) -> float:
    return float(e.eval(p))


def is_zero(e: Expr) -> str:
    return e.zeroness()


def point_from_map(vars, mapping):
    """The point with each variable of `vars` bound to mapping[name]."""
    return Point(vars, [mapping[nm] for nm in vars.names])
