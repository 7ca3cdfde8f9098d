"""Independent output check: stdlib only, no tflkit code.

`evaluate` reads the printed form of an expression (`+ - * / ^`, rational
literals, `exp sin cos ln`, parentheses) with its own parser and evaluates
it in exact `Fraction` arithmetic.  Transcendental functions are evaluated
in double precision and their results converted exactly to `Fraction`, so
the only rounding in a value comes from those calls.

`check_run` compares one problem run against its hand-written reference
and returns the names of the checks that failed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction as Q

# A value built from transcendental calls at O(1) points carries rounding
# of a few ulps (~1e-16).  Anything above this is a real residual.
INEXACT_TOL = Q(1, 10**12)

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?)|([A-Za-z_]\w*)|(.))")
_FUNCS = {"exp": math.exp, "sin": math.sin, "cos": math.cos,
          "ln": math.log}


class _Evaluator:
    def __init__(self, text, env):
        self.tokens = []
        for num, name, op in _TOKEN.findall(text.strip()):
            self.tokens.append(("num", Q(num)) if num else
                               ("name", name) if name else ("op", op))
        self.pos = 0
        self.env = env
        self.inexact = False

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, op=None):
        tok = self.peek()
        if tok is None or (op is not None and tok != ("op", op)):
            raise ValueError(f"expected {op!r} at token {self.pos}, "
                             f"got {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        v = self.sum()
        if self.peek() is not None:
            raise ValueError(f"trailing input at token {self.pos}")
        return v

    def sum(self):
        v = self.product()
        while self.peek() in (("op", "+"), ("op", "-")):
            if self.take()[1] == "+":
                v += self.product()
            else:
                v -= self.product()
        return v

    def product(self):
        v = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            if self.take()[1] == "*":
                v *= self.unary()
            else:
                v /= self.unary()
        return v

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = -1 if self.peek() == ("op", "-") else 1
            if sign < 0:
                self.take()
            kind, k = self.take()
            if kind != "num" or k.denominator != 1:
                raise ValueError("exponents must be integers")
            v = v ** (sign * int(k))
        return v

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return val
        if kind == "name":
            if val in _FUNCS:
                self.take("(")
                arg = self.sum()
                self.take(")")
                self.inexact = True
                return Q(_FUNCS[val](float(arg)))
            return self.env[val]
        if val == "(":
            v = self.sum()
            self.take(")")
            return v
        raise ValueError(f"unexpected {val!r}")


def evaluate(text, env):
    """(value, inexact) of the printed expression at the point `env`."""
    ev = _Evaluator(text, env)
    return ev.parse(), ev.inexact


def vanishes(text, names, points):
    """Does the expression vanish at every point (exactly when no
    transcendental call was made, else within INEXACT_TOL)?"""
    for point in points:
        value, inexact = evaluate(text, dict(zip(names, point)))
        if abs(value) > (INEXACT_TOL if inexact else 0):
            return False
    return True


def check_run(problem, mode, tree, report_text, expected_dir):
    """Names of the checks this run fails against `problem.ref`."""
    ref = problem.ref
    failed = []
    if tree["exit_code"] != ref.exit_code:
        failed.append("exit")
    verdicts = {"con": ref.con, "inv": ref.inv, "dim": ref.dim,
                "solvable": ref.solvable}
    if tree["verdicts"] != verdicts:
        failed.append("verdicts")
    idx = tree["indices"] or {}
    if (tuple(idx.get("kappa", ())) != ref.kappa
            or tuple(idx.get("rho", ())) != ref.rho):
        failed.append("indices")
    if mode == "solve" and ref.expected_json:
        expected = (expected_dir / ref.expected_json).read_text(
            encoding="utf-8")
        if report_text != expected:
            failed.append("expected_json")
    if mode == "solve" and ref.exit_code == 0:
        out = tree["output"]
        if (out is None or sorted(out["kappa"], reverse=True) != list(ref.kappa)
                or len(out["components"]) != len(ref.kappa)
                or "0" in out["components"]):
            failed.append("output")
        elif not all(vanishes(c, tree["system"]["states"], ref.points_on_N)
                     for c in out["components"]):
            failed.append("vanish")
    return failed
