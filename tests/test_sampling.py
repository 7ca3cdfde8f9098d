"""The sampled path reads only the points it needs, and they are the points
it drew before: Newton projections onto N evaluate u* only at an accepted
point, and the kernel zero test's falsifier draws each of its points once
per variable space, when first read.  The references are the loops as they
were (tests/_sampling_reference.py)."""

import random

import pytest

import _sampling_reference as reference
from tflkit.conditions import sample_on_N
from tflkit.expr import (FALSIFIER_SAMPLES, Expr, VariableSpace, Zeroness,
                         parse_expr)
from tflkit.problem import loads_problem
from test_problem_cli import UNICYCLE


def typed(points):
    return [[(type(v), v) for v in p.values] for p in points]


@pytest.fixture
def unicycle():
    return loads_problem(UNICYCLE).to_control_system()


class TestNewtonSamples:
    @pytest.mark.parametrize("seed", range(4))
    def test_the_points_of_the_old_loop(self, unicycle, seed):
        got = sample_on_N(unicycle, 8, seed=seed)
        assert typed(got) == typed(reference.newton_samples(unicycle, 8,
                                                            seed=seed))

    @staticmethod
    def spy_u_star(monkeypatch, us):
        """The points at which the expression `us` is evaluated."""
        points = []
        evaluate = Expr.eval

        def spy(e, p):
            if e is us:
                points.append(p)
            return evaluate(e, p)
        monkeypatch.setattr(Expr, "eval", spy)
        return points

    def test_no_iterate_evaluates_u_star(self, unicycle, monkeypatch):
        # u2* = -x4 is evaluated once per accepted point, where the old
        # loop evaluated it at every iterate
        us = unicycle.u_star[1]
        assert str(us) == "-x4"
        points = self.spy_u_star(monkeypatch, us)
        samples = sample_on_N(unicycle, 8, seed=0)
        assert [p.values[3:] for p in points] \
            == [p.values[3:] for p in samples]
        points.clear()
        reference.newton_samples(unicycle, 8, seed=0)
        assert len(points) > 8


def kernel_exprs(seed, count):
    """`count` kernel-bearing expressions over (t, u1, x1, x2, x3), seeded:
    a polynomial times an identity that vanishes wherever it is defined,
    plus, half the time, a kernel term that does not vanish.  The ln
    identities are undefined at some falsifier points."""
    rng = random.Random(seed)
    names = ("u1", "x1", "x2", "x3")
    identities = ("sin({a})^2 + cos({a})^2 - 1", "exp(ln({a})) - ({a})",
                  "ln(({a})^2) - 2*ln({a})")

    def monomial():
        return "*".join(f"{rng.choice(names)}^{rng.randint(1, 2)}"
                        for _ in range(rng.randint(0, 2))) or "1"

    def linear():
        return (f"{rng.randint(1, 3)}*{rng.choice(names)} "
                f"+ {rng.randint(-2, 2)}")

    out = []
    for _ in range(count):
        text = (f"({monomial()})*"
                f"({rng.choice(identities).format(a=linear())})")
        if rng.random() < 0.5:
            kernel = rng.choice(("sin", "cos", "exp"))
            text += f" + {rng.randint(1, 3)}*{monomial()}*{kernel}({linear()})"
        out.append(text)
    return out


class TestFalsifierPoints:
    def test_the_first_draws_of_the_seed(self):
        vs = VariableSpace.canonical(3, 1)
        got = list(vs.falsifier_points())
        assert len(got) == FALSIFIER_SAMPLES
        assert typed(got) == typed(reference.falsifier_points(vs))
        # read again, they are the same points, and nothing more is drawn
        state = vs._falsifier_rng.getstate()
        assert all(a is b for a, b in zip(vs.falsifier_points(), got))
        assert vs._falsifier_rng.getstate() == state

    def test_verdicts_of_the_old_falsifier(self):
        vs = VariableSpace.canonical(3, 1)
        verdicts = []
        for text in kernel_exprs(5, 60):
            want = reference.zeroness(parse_expr(text, vs))
            verdicts.append(parse_expr(text, vs).zeroness())
            assert verdicts[-1] == want, text
        assert set(verdicts) == {Zeroness.NONZERO, Zeroness.INCONCLUSIVE}

    def test_no_point_drawn_before_it_is_read(self, monkeypatch):
        # after each verdict the space has drawn as many points as the
        # furthest any verdict has read
        vs = VariableSpace.canonical(3, 1)
        exprs = [parse_expr(text, vs) for text in kernel_exprs(7, 40)]
        read = {id(e): 0 for e in exprs}
        evaluate = Expr.eval

        def spy(e, p):
            if id(e) in read:
                read[id(e)] += 1
            return evaluate(e, p)
        monkeypatch.setattr(Expr, "eval", spy)
        furthest = set()
        for e in exprs:
            e.zeroness()
            furthest.add(read[id(e)])
            assert len(vs._falsifier_points) == max(furthest)
        assert furthest > {1, FALSIFIER_SAMPLES}
