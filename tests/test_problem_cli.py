"""Problem files, report trees, exit codes, and the command line."""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tflkit.errors import (DimensionMismatch, InvarianceViolation,
                           ProblemFormatError)
from tflkit.expr import parse_expr
import tflkit.problem as problem_module
from tflkit.problem import (EXIT_ADAPTATION, EXIT_CONDITIONS,
                            EXIT_INTEGRATION, EXIT_OK, MAX_SAMPLES,
                            cmd_check, cmd_solve, dumps_report, load_problem,
                            loads_problem, loads_report)
from tflkit.cli import main as cli_main
from _exprs import point_from_map

ROOT = Path(__file__).resolve().parent.parent
SEC5 = ROOT / "problems" / "paper-sec5.tfl"
CHAIN = ROOT / "problems" / "brunovsky-chain.tfl"
DOUBLE = ROOT / "problems" / "double-integrator.tfl"

UNCONTROLLABLE = """
[system]
states = x1 x2
inputs = u1
f = 0, 0
g1 = 1, 0

[target]
N = x1, x2
x0 = 0, 0
u_star = 0
"""

NON_INVOLUTIVE = """
[system]
states = x1 x2 x3 x4
inputs = u1 u2
f = 0, 0, 0, x3
g1 = 1, 0, -x2, 0
g2 = 0, 1, x1, 0

[target]
N = x2, x3
x0 = 1, 0, 0, 0
u_star = 0, 0
"""

# The level-1 closure of this system contains dx1 - exp(x2^2) dx2, whose
# potential needs the Gaussian integral: integration honestly fails and the
# missing direction is reported.
NEEDS_HINTS = """
[system]
states = x1 x2 x3
inputs = u1
f = 0, 0, x1
g1 = exp(x2^2), 1, 0

[target]
N = x1, x3
x0 = 0, 0, 0
u_star = 0
"""


class TestLoadProblem:
    def test_bundled_worked_example(self):
        pb = load_problem(SEC5)
        assert pb.vars.n == 7 and pb.vars.m == 2
        assert pb.options["seed"] == 0
        sysm = pb.to_control_system()
        assert sysm.n_star == 2

    def test_wrong_g_rows(self):
        text = SEC5.read_text().replace("g2 = -x2, 0, 0, 0, -x1, x1, x1",
                                        "g2 = -x2, 0, 0, 0, -x1, x1")
        with pytest.raises(DimensionMismatch):
            loads_problem(text)

    def test_x0_off_manifold(self):
        text = SEC5.read_text().replace("x0 = 2, 0, 4, 0, 0, 0, 0",
                                        "x0 = 2, 0, 5, 0, 0, 0, 0")
        pb = loads_problem(text)
        with pytest.raises(ValueError):
            pb.to_control_system()

    def test_expression_error_reports_line(self):
        text = SEC5.read_text().replace("f = -x2,", "f = -y9,")
        with pytest.raises(ProblemFormatError) as err:
            loads_problem(text)
        assert err.value.line is not None

    def test_duplicate_section(self):
        with pytest.raises(ProblemFormatError):
            loads_problem("[system]\nstates = x1 x2\n[system]\n")

    def test_unknown_option(self):
        text = SEC5.read_text() + "\nwibble = 3\n"
        with pytest.raises(ProblemFormatError):
            loads_problem(text)

    def test_hints_keys(self):
        text = SEC5.read_text() + "\n[hints]\nk1 = x3*exp(-x4) - 4\n"
        pb = loads_problem(text)
        assert 1 in pb.hints and len(pb.hints[1]) == 1

    def test_unknown_section(self):
        text = SEC5.read_text() + "\n[hint]\nk1 = x3*exp(-x4) - 4\n"
        line = text.splitlines().index("[hint]") + 1
        with pytest.raises(ProblemFormatError) as err:
            loads_problem(text)
        assert str(err.value) == f"unknown section [hint] (line {line})"

    @pytest.mark.parametrize("section, line, key", [
        ("[system]", 5, "g0"), ("[system]", 5, "inputz"),
        ("[target]", 12, "parm"), ("[target]", 12, "u")])
    def test_unknown_key(self, section, line, key):
        # a misspelt `param` used to drop the parametrization check silently
        text = SEC5.read_text().replace(section, f"{section}\n{key} = x1", 1)
        with pytest.raises(ProblemFormatError) as err:
            loads_problem(text)
        assert str(err.value) == (f"unknown key '{key}' in {section} "
                                  f"(line {line})")

    def test_extra_input_field_is_a_dimension_mismatch(self):
        text = SEC5.read_text().replace("[system]",
                                        "[system]\ng3 = 0, 0, 0, 0, 0, 0, 0")
        with pytest.raises(DimensionMismatch):
            loads_problem(text)

    def test_every_key_of_the_format_loads(self):
        text = (DOUBLE.read_text()
                + "param = x1, 0\n"
                + "\n[hints]\nk1 = x1\n"
                + "\n[options]\nseed = 1\nsamples = 3\n"
                + "ansatz_degree = 1\ncombo_degree = 1\n")
        pb = loads_problem(text)
        assert pb.parametrization is not None and 1 in pb.hints
        assert pb.options == {"seed": 1, "samples": 3, "ansatz_degree": 1,
                              "combo_degree": 1}

    def test_not_utf8(self, tmp_path):
        bad = tmp_path / "latin1.tfl"
        bad.write_bytes(DOUBLE.read_bytes().replace(b"# ", b"# caf\xe9 ", 1))
        with pytest.raises(ProblemFormatError) as err:
            load_problem(bad)
        assert "is not UTF-8 text" in str(err.value)
        assert err.value.line == 1


class TestCommands:
    def test_check_worked_example(self):
        pb = load_problem(SEC5)
        report, tree, code = cmd_check(pb)
        assert code == EXIT_OK
        assert tree["verdicts"] == {"con": True, "inv": True, "dim": True,
                                    "solvable": True}
        assert tree["indices"]["rho"] == [2, 2, 1, 0]
        assert tree["indices"]["kappa"] == [3, 2]
        assert tree["output"] is None

    def test_check_never_integrates(self, monkeypatch):
        import tflkit.algorithm as algorithm
        def boom(*a, **k):
            raise AssertionError("check must not integrate")
        monkeypatch.setattr(algorithm, "frobenius_integrate", boom)
        pb = load_problem(SEC5)
        _, tree, code = cmd_check(pb)
        assert code == EXIT_OK

    def test_solve_worked_example(self, sec5_solved):
        report, tree, code = sec5_solved
        assert code == EXIT_OK
        assert len(tree["output"]["components"]) == 2
        assert tree["output"]["kappa"] == [3, 2]
        assert tree["normal_form"]["eta"] == ["x1", "x2"]

    def test_conditions_failure_exit_code(self):
        pb = loads_problem(UNCONTROLLABLE)
        _, tree, code = cmd_solve(pb)
        assert code == EXIT_CONDITIONS
        assert tree["verdicts"]["con"] is False

    def test_non_involutive_exit_code(self):
        pb = loads_problem(NON_INVOLUTIVE)
        _, tree, code = cmd_solve(pb)
        assert code == EXIT_CONDITIONS
        assert tree["verdicts"]["inv"] is False

    def test_integration_failure_exit_code(self):
        pb = loads_problem(NEEDS_HINTS)
        _, tree, code = cmd_solve(pb)
        assert code == EXIT_INTEGRATION
        assert "residual" in (tree["error"] or "")

    def test_report_round_trip(self):
        pb = load_problem(DOUBLE)
        _, tree, _ = cmd_solve(pb)
        text = dumps_report(tree)
        assert loads_report(text) == tree
        assert dumps_report(loads_report(text)) == text

    @pytest.mark.parametrize("stem", ["paper-sec5", "double-integrator",
                                      "brunovsky-chain"])
    def test_bundled_expected_reports(self, stem, request):
        """Fresh solves agree with the bundled expectation files on the
        certificate-bearing fields."""
        expected = json.loads(
            (ROOT / "problems" / f"{stem}.expected.json").read_text())
        if stem == "paper-sec5":
            _, tree, code = request.getfixturevalue("sec5_solved")
        else:
            pb = load_problem(ROOT / "problems" / f"{stem}.tfl")
            _, tree, code = cmd_solve(pb)
        assert code == expected["exit_code"]
        for key in ("verdicts", "indices", "flag", "output",
                    "zero_dynamics"):
            assert tree[key] == expected[key], key

    @pytest.mark.parametrize("stem", ["paper-sec5", "double-integrator",
                                      "brunovsky-chain"])
    def test_float_x0_gives_the_bundled_report(self, stem):
        """x0 is stored exactly, so float coordinates equal to the file's
        rationals give the same report, byte for byte."""
        pb = load_problem(ROOT / "problems" / f"{stem}.tfl")
        pb.x0 = [float(v) for v in pb.x0]
        _, tree, _ = cmd_solve(pb)
        expected = (ROOT / "problems" / f"{stem}.expected.json").read_bytes()
        assert dumps_report(tree).encode("utf-8") == expected

    @pytest.mark.parametrize("stem", ["paper-sec5", "double-integrator",
                                      "brunovsky-chain"])
    def test_bundled_reports_byte_for_byte(self, stem, request):
        """A fresh solve's report text is the bundled expectation file,
        byte for byte."""
        if stem == "paper-sec5":
            _, tree, _ = request.getfixturevalue("sec5_solved")
        else:
            _, tree, _ = cmd_solve(load_problem(ROOT / "problems"
                                                / f"{stem}.tfl"))
        expected = (ROOT / "problems" / f"{stem}.expected.json").read_bytes()
        assert dumps_report(tree).encode("utf-8") == expected

    @pytest.mark.parametrize("stem", ["paper-sec5", "double-integrator",
                                      "brunovsky-chain"])
    def test_check_reports_byte_for_byte(self, stem):
        """A fresh check's report text is the recorded one in
        tests/data/check_reports, byte for byte."""
        _, tree, _ = cmd_check(load_problem(ROOT / "problems"
                                            / f"{stem}.tfl"))
        expected = (ROOT / "tests" / "data" / "check_reports"
                    / f"{stem}.json").read_bytes()
        assert dumps_report(tree).encode("utf-8") == expected


# The dynamic unicycle following the unit circle.  Its second defining
# function cannot be solved linearly for a state, so the adapted output
# comes from the float-sample fallback of integrate.adapt_to_L, and its
# vanishing on N is decided by the sample branch of
# ControlSystem.vanishes_on_N.
UNICYCLE = """
[system]
states = x1 x2 x3 x4
inputs = u1 u2
f = x4*cos(x3), x4*sin(x3), 0, 0
g1 = 0, 0, 0, 1
g2 = 0, 0, 1, 0

[target]
N = x1^2 + x2^2 - 1, x1*cos(x3) + x2*sin(x3)
x0 = 0, 1, 0, 1
u_star = 0, -x4
"""


@pytest.fixture(scope="module")
def unicycle_solved():
    pb = loads_problem(UNICYCLE)
    return pb, cmd_solve(pb)


class TestKernelBearingSolve:
    def test_indices_and_sampled_certificates(self, unicycle_solved):
        _, (_, tree, code) = unicycle_solved
        assert code == EXIT_OK
        assert tree["indices"]["kappa"] == [2]
        assert tree["indices"]["rho"] == [1, 1]
        assert tree["output"]["kappa"] == [2]
        (h,) = tree["output"]["components"]
        warnings = tree["warnings"]
        assert warnings and all("samples only" in w for w in warnings)
        assert (f"vanishing of output '{h}' on N certified by samples only"
                in warnings)

    @pytest.mark.xfail(strict=True, reason="the adapted output is rounded "
                       "from float samples and does not vanish on N")
    def test_output_vanishes_at_rational_points_of_the_circle(
            self, unicycle_solved):
        pb, (_, tree, _) = unicycle_solved
        vs = pb.vars
        (text,) = tree["output"]["components"]
        h = parse_expr(text, vs)
        for t in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(3, 5)):
            x1, x2 = 2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)
            x3 = Fraction(math.atan2(-x1, x2))
            values = dict.fromkeys(vs.names, Fraction(0))
            values.update(x1=x1, x2=x2, x3=x3, x4=Fraction(1))
            v = h.eval(point_from_map(vs, values))
            assert v == 0 if isinstance(v, Fraction) else abs(v) <= 1e-12


# A double integrator whose target {x1 = 1} u* = 0 does not render
# invariant: L_f x1 = x2, which is not zero on N.  NOT_INVARIANT_LN is the
# same N written as ln(x1) = 0, where L_f ln(x1) = x2/x1, again not zero on
# N; its reduction has a leftover and no samples are taken.
NOT_INVARIANT = """
[system]
states = x1 x2
inputs = u1
f = x2, 0
g1 = 0, 1

[target]
N = x1 - 1
x0 = 1, 0
u_star = 0
"""
NOT_INVARIANT_LN = NOT_INVARIANT.replace("N = x1 - 1", "N = ln(x1)")


class TestInvarianceOfN:
    def test_polynomial_n_is_rejected(self):
        with pytest.raises(InvarianceViolation,
                           match="u\\* does not render N invariant"):
            cmd_check(loads_problem(NOT_INVARIANT))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ControlSystem._validate accepts the "
                       "inconclusive verdict that vanishes_on_N gives for a "
                       "reduction leftover without samples, so check exits "
                       "2 with no warning")
    def test_the_same_n_through_a_kernel_is_rejected(self):
        try:
            _, tree, code = cmd_check(loads_problem(NOT_INVARIANT_LN))
        except InvarianceViolation as exc:
            assert "u* does not render N invariant" in str(exc)
        else:
            raise AssertionError(f"check accepted N = ln(x1) and exited "
                                 f"{code} with warnings {tree['warnings']}")


class TestCli:
    def run_cli(self, *args):
        import io
        from contextlib import redirect_stdout, redirect_stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(list(args))
        return code, out.getvalue(), err.getvalue()

    def test_check_text_output(self):
        code, out, _ = self.run_cli("check", str(SEC5))
        assert code == 0
        assert "controllability (Con): holds" in out
        assert "kappa = (3, 2)" in out

    def test_solve_json_stdout(self):
        code, out, _ = self.run_cli("solve", str(CHAIN), "--json", "-",
                                    "--quiet")
        assert code == 0
        tree = json.loads(out)
        assert tree["output"]["kappa"] == [3]
        assert tree["schema"] == "tflkit-report/1"

    def test_adaptation_failure_exit_code(self):
        # a degree-1 ansatz cannot close sec5's vanishing block
        code, out, _ = self.run_cli("solve", str(SEC5), "--ansatz-degree",
                                    "1")
        assert code == EXIT_ADAPTATION == 4
        assert ("error: no degree-<=1 combination closes the vanishing "
                "block (0 of 1 found)") in out

    def test_missing_file(self):
        code, _, err = self.run_cli("check", "/nonexistent.tfl")
        assert code == 1
        assert "error" in err

    def test_bad_problem_file(self, tmp_path):
        bad = tmp_path / "bad.tfl"
        bad.write_text("[system]\nstates = x1\n")
        code, _, err = self.run_cli("check", str(bad))
        assert code == 1

    def test_not_utf8_file(self, tmp_path):
        bad = tmp_path / "latin1.tfl"
        bad.write_bytes(DOUBLE.read_bytes() + b"# \xff\n")
        code, out, err = self.run_cli("check", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "is not UTF-8 text" in err

    def test_unwritable_json_path(self, tmp_path):
        out_path = tmp_path / "missing" / "x.json"
        code, out, err = self.run_cli("solve", str(DOUBLE), "--json",
                                      str(out_path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and str(out_path) in err
        assert not out_path.exists()

    def test_unknown_key_file(self, tmp_path):
        bad = tmp_path / "parm.tfl"
        bad.write_text(DOUBLE.read_text() + "parm = x1, 0\n")
        code, _, err = self.run_cli("check", str(bad))
        assert code == 1
        assert err.startswith("error: unknown key 'parm' in [target]")

    def test_x0_off_manifold(self, tmp_path):
        bad = tmp_path / "off.tfl"
        bad.write_text(DOUBLE.read_text().replace("x0 = 1, 0", "x0 = 1, 1"))
        code, _, err = self.run_cli("solve", str(bad))
        assert code == 1
        assert err.startswith("error: x0 is not on N")

    def test_input_in_drift(self, tmp_path):
        bad = tmp_path / "fu.tfl"
        bad.write_text(DOUBLE.read_text().replace("f = x2, 0",
                                                  "f = x2 + u1, 0"))
        code, _, err = self.run_cli("check", str(bad))
        assert code == 1
        assert err.startswith("error: state-space data may only involve "
                              "state variables, got ['u1']")

    def test_input_in_target(self, tmp_path):
        bad = tmp_path / "nu.tfl"
        bad.write_text(DOUBLE.read_text().replace("N = x2", "N = x2 + u1"))
        code, _, err = self.run_cli("check", str(bad))
        assert code == 1
        assert err.startswith("error: state-space data may only involve "
                              "state variables, got ['u1']")

    def test_zero_samples_override(self):
        code, _, err = self.run_cli("check", str(DOUBLE), "--samples", "0")
        assert code == 1
        assert err.startswith("error: option 'samples' must be at least 1")

    def test_zero_samples_option(self, tmp_path):
        bad = tmp_path / "nosamples.tfl"
        bad.write_text(DOUBLE.read_text() + "\n[options]\nsamples = 0\n")
        code, _, err = self.run_cli("solve", str(bad))
        assert code == 1
        assert err.startswith("error: option 'samples' must be at least 1")

    def test_huge_samples_override(self):
        # the point target's sample list was built before any check
        code, out, err = self.run_cli("check", str(CHAIN), "--samples",
                                      "1000000000000000")
        assert code == 1 and out == ""
        assert err == ("error: option 'samples' must be at most 1000, got "
                       "1000000000000000\n")

    def test_huge_samples_option(self, tmp_path):
        bad = tmp_path / "manysamples.tfl"
        bad.write_text(SEC5.read_text().replace("samples = 8",
                                                f"samples = {10 ** 20}"))
        code, out, err = self.run_cli("solve", str(bad))
        assert code == 1 and out == ""
        assert err == ("error: option 'samples' must be at most 1000, got "
                       f"{10 ** 20}\n")

    def test_most_samples_accepted(self, monkeypatch):
        # the maximum itself is a valid count, which reaches the run
        seen = []
        run = problem_module.run_tfl
        monkeypatch.setattr(problem_module, "run_tfl", lambda *a, **k:
                            seen.append(k["n_samples"]) or run(*a, **k))
        code, _, _ = self.run_cli("check", str(DOUBLE), "--samples",
                                  str(MAX_SAMPLES))
        assert (code, seen) == (0, [MAX_SAMPLES])

    def test_x0_division_by_zero(self, tmp_path):
        bad = tmp_path / "x0zero.tfl"
        bad.write_text(DOUBLE.read_text().replace("x0 = 1, 0", "x0 = 1/0, 0"))
        code, _, err = self.run_cli("check", str(bad))
        assert code == 1
        assert err.startswith("error: [target] x0 entries must be "
                              "rationals, got '1/0' (line 10)")

    def test_x0_beyond_float_range(self, tmp_path):
        bad = tmp_path / "x0huge.tfl"
        bad.write_text(DOUBLE.read_text().replace("x0 = 1, 0",
                                                  "x0 = 1e309, 0"))
        code, out, err = self.run_cli("solve", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: [target] x0 entries must be within "
                              "float range, got '1e309' (line 10)")

    def test_decoupling_entry_beyond_float_range(self, tmp_path):
        # x0 itself is a float, but L_g1 x2 = x1^2 at x0 is 1e400
        bad = tmp_path / "lghuge.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("g1 = 0, 1", "g1 = 0, x1^2")
                       .replace("x0 = 1, 0", "x0 = 1e200, 0"))
        code, out, err = self.run_cli("solve", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: L_g L_f^0 h of output 'x2' at x0 is "
                              "beyond float range")

    def test_u_star_beyond_float_range_at_samples(self, tmp_path):
        # u*(x0) = -1e400 is exact, but each sample near x0 needs u*
        # within float range
        bad = tmp_path / "ustarhuge.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("f = x2, 0", "f = x2, x1^2")
                       .replace("x0 = 1, 0", "x0 = 1e200, 0")
                       .replace("u_star = 0", "u_star = -x1^2"))
        code, out, err = self.run_cli("solve", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: u_star is beyond float range near x0: "
                              "its u1 component is '-x1^2'")

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_n_gradient_beyond_float_range(self, tmp_path, command):
        # x0 is on N, but d/dx2 of x2*(x1^2 + 1) at x0 is 1e400
        bad = tmp_path / "gradhuge.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("N = x2", "N = x2*(x1^2 + 1)")
                       .replace("x0 = 1, 0", "x0 = 1e200, 0"))
        code, out, err = self.run_cli(command, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: the gradient of 'x1^2*x2 + x2' at x0 "
                              "is beyond float range")

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_coefficient_beyond_float_range_at_x0(self, tmp_path, command):
        # x0 is on N and N is invariant, but the dt coefficient of the
        # first system one-form, -(x2 + x1^2), is -1e400 at x0
        bad = tmp_path / "coeffhuge.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("f = x2, 0", "f = x2 + x1^2, 0")
                       .replace("x0 = 1, 0", "x0 = 1e200, 0"))
        code, out, err = self.run_cli(command, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: the value of '-x1^2 - x2' at a point "
                              "is beyond float range")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_n_value_beyond_float_range_off_n(self, tmp_path, command):
        # x1^2 - x2 at x0 is exactly 1e400: not on N, and no float holds it
        bad = tmp_path / "offhuge.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("N = x2", "N = x1^2 - x2")
                       .replace("x0 = 1, 0", "x0 = 1e200, 0"))
        code, out, err = self.run_cli(command, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: x0 is not on N: |x1^2 - x2| is "
                              "beyond float range there")

    def test_n_value_with_kernel_beyond_float_range(self, tmp_path):
        # x0 is on N, but sin(x2)*x1^2 is evaluated in floats
        bad = tmp_path / "kernelhuge.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("N = x2", "N = x2 + sin(x2)*x1^2")
                       .replace("x0 = 1, 0", "x0 = 1e200, 0"))
        code, out, err = self.run_cli("check", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: the value of 'x1^2*sin(x2) + x2' at "
                              "x0 is beyond float range")

    def test_parametrization_off_n(self, tmp_path):
        # (x1^2, x1^2, x3) does not lie on x1^2 = x2^3; (x1^3, x1^2, x3)
        # would
        bad = tmp_path / "cusp.tfl"
        bad.write_text("[system]\nstates = x1 x2 x3\ninputs = u1\n"
                       "f = 0, 0, 0\ng1 = 0, 0, 1\n\n[target]\n"
                       "N = x1^2 - x2^3\nx0 = 1, 1, 1\nu_star = 0\n"
                       "param = x1^2, x1^2, x3\n")
        code, out, err = self.run_cli("check", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: parametrization does not satisfy the "
                              "defining functions: -x2^3 + x1^2")

    def test_u_star_irrational_at_x0(self, tmp_path):
        # u*(x0) = cos(1) - 1 is not rational, and the lifted base point
        # holds it as a coordinate
        bad = tmp_path / "irrational.tfl"
        bad.write_text(DOUBLE.read_text()
                       .replace("f = x2, 0", "f = x2, 1 - cos(x1)")
                       .replace("u_star = 0", "u_star = cos(x1) - 1"))
        code, _, err = self.run_cli("solve", str(bad))
        assert code == 1
        assert err.startswith("error: u_star must be rational at x0, but "
                              "its u1 component 'cos(x1) - 1' is not")

    def test_negative_ansatz_degree_override(self):
        code, _, err = self.run_cli("solve", str(DOUBLE), "--ansatz-degree",
                                    "-1")
        assert code == 1
        assert err.startswith(
            "error: option 'ansatz_degree' must be at least 0, got -1")

    @pytest.mark.parametrize("key", ["ansatz_degree", "combo_degree"])
    def test_negative_degree_option(self, tmp_path, key):
        bad = tmp_path / "negdegree.tfl"
        bad.write_text(DOUBLE.read_text() + f"\n[options]\n{key} = -2\n")
        code, _, err = self.run_cli("solve", str(bad))
        assert code == 1
        assert err.startswith(f"error: option '{key}' must be at least 0, "
                              "got -2")

    def test_json_file_written_and_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        code1, _, _ = self.run_cli("solve", str(DOUBLE), "--json", str(out1),
                                   "--quiet")
        code2, _, _ = self.run_cli("solve", str(DOUBLE), "--json", str(out2),
                                   "--quiet")
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_options(self, tmp_path):
        out = tmp_path / "c.json"
        self.run_cli("solve", str(DOUBLE), "--seed", "7", "--json", str(out),
                     "--quiet")
        tree = json.loads(out.read_text())
        assert tree["options"]["seed"] == 7

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tflkit", "check", str(DOUBLE)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "exit code: 0" in proc.stdout
