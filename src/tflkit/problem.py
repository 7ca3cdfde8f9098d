"""Problem files and structured reports.

A problem file is a sectioned key-value text format; expression values use
the same grammar as the parser.  Reports are emitted as a schema-versioned
JSON tree whose field layout is stable, so fixtures can be diffed and two
runs with the same seed are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import (AdaptationFailed, CertificateMismatch,
                     DimensionMismatch, IntegrationFailed, ProblemFormatError,
                     TflError)
from .expr import VariableSpace, parse_expr
from .lift import ControlSystem
from .algorithm import TFLReport, run_tfl

__all__ = [
    "ProblemFile",
    "load_problem",
    "loads_problem",
    "cmd_check",
    "cmd_solve",
    "report_to_tree",
    "render_text",
    "EXIT_OK",
    "EXIT_CONDITIONS",
    "EXIT_INTEGRATION",
    "EXIT_ADAPTATION",
    "EXIT_INTERNAL",
    "EXIT_USAGE",
]

SCHEMA = "tflkit-report/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONDITIONS = 2
EXIT_INTEGRATION = 3
EXIT_ADAPTATION = 4
EXIT_INTERNAL = 5

# the conditions decide each sample as a point of their table, so the
# count bounds a run's time and memory
MAX_SAMPLES = 1000


@dataclass
class ProblemFile:
    f: list
    g: list
    N: list
    x0: list
    u_star: list
    parametrization: list | None
    hints: dict
    options: dict
    vars: VariableSpace

    def to_control_system(self) -> ControlSystem:
        return ControlSystem(self.vars, self.f, self.g, self.N, self.x0,
                             self.u_star, parametrization=self.parametrization)


_SECTIONS = ("system", "target", "hints", "options")
_TARGET_KEYS = ("n", "x0", "u_star", "param")


def _split_list(value):
    return [p.strip() for p in value.split(",") if p.strip()]


def _parse_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SECTIONS:
                raise ProblemFormatError(f"unknown section [{current}]",
                                         lineno)
            if current in sections:
                raise ProblemFormatError(f"duplicate section [{current}]",
                                         lineno)
            sections[current] = {}
            continue
        if current is None:
            raise ProblemFormatError("content before the first section",
                                     lineno)
        if "=" not in line:
            raise ProblemFormatError("expected key = value", lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in sections[current]:
            raise ProblemFormatError(
                f"duplicate key '{key}' in [{current}]", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def loads_problem(text: str) -> ProblemFile:
    sections = _parse_sections(text)
    sys_sec = sections.get("system")
    tgt_sec = sections.get("target")
    if sys_sec is None or tgt_sec is None:
        raise ProblemFormatError("need [system] and [target] sections")

    def want(sec, name, key):
        if key not in sec:
            raise ProblemFormatError(f"[{name}] is missing '{key}'")
        return sec[key]

    states = want(sys_sec, "system", "states")[0].split()
    inputs = want(sys_sec, "system", "inputs")[0].split()
    try:
        vars0 = VariableSpace(states, inputs)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from None
    n, m = vars0.n, vars0.m
    extra_g = [k for k in sys_sec if k.startswith("g") and k[1:].isdigit()
               and int(k[1:]) > m]
    if extra_g:
        raise DimensionMismatch(
            f"[system] declares {m} inputs but defines {sorted(extra_g)}")
    _reject_unknown_keys(sys_sec, "system",
                         {"states", "inputs", "f"}
                         | {f"g{j}" for j in range(1, m + 1)})
    _reject_unknown_keys(tgt_sec, "target", _TARGET_KEYS)

    def parse_list(sec, name, key, expect_len=None):
        value, lineno = want(sec, name, key)
        parts = _split_list(value)
        if expect_len is not None and len(parts) != expect_len:
            raise DimensionMismatch(
                f"[{name}] {key}: expected {expect_len} entries, got "
                f"{len(parts)} (line {lineno})")
        out = []
        for p in parts:
            try:
                out.append(parse_expr(p, vars0))
            except TflError as exc:
                raise ProblemFormatError(
                    f"[{name}] {key}: {exc}", lineno) from None
        return out

    f = parse_list(sys_sec, "system", "f", n)
    g = []
    for j in range(1, m + 1):
        g.append(parse_list(sys_sec, "system", f"g{j}", n))

    N = parse_list(tgt_sec, "target", "n")
    if not N or len(N) > n:
        raise DimensionMismatch(
            f"[target] N must list between 1 and {n} defining functions")
    x0_raw, x0_line = want(tgt_sec, "target", "x0")
    parts = _split_list(x0_raw)
    if len(parts) != n:
        raise DimensionMismatch(
            f"[target] x0: expected {n} coordinates, got {len(parts)} "
            f"(line {x0_line})")
    x0 = []
    for p in parts:
        try:
            x0.append(Fraction(p))
        except (ValueError, ZeroDivisionError):
            raise ProblemFormatError(
                f"[target] x0 entries must be rationals, got '{p}'",
                x0_line) from None
        try:
            float(x0[-1])  # samples and ranks work in floats
        except OverflowError:
            raise ProblemFormatError(
                f"[target] x0 entries must be within float range, got "
                f"'{p}'", x0_line) from None
    u_star = parse_list(tgt_sec, "target", "u_star", m)
    parametrization = None
    if "param" in tgt_sec:
        parametrization = parse_list(tgt_sec, "target", "param", n)

    hints = {}
    for key, (value, lineno) in sections.get("hints", {}).items():
        if not key.startswith("k") or not key[1:].isdigit():
            raise ProblemFormatError(
                f"[hints] keys look like k0, k1, ...; got '{key}'", lineno)
        level = int(key[1:])
        hints[level] = []
        for p in _split_list(value):
            try:
                hints[level].append(parse_expr(p, vars0))
            except TflError as exc:
                raise ProblemFormatError(f"[hints] {key}: {exc}",
                                         lineno) from None

    options = {"seed": 0, "samples": 8, "ansatz_degree": 2,
               "combo_degree": 1}
    for key, (value, lineno) in sections.get("options", {}).items():
        if key not in options:
            raise ProblemFormatError(f"unknown option '{key}'", lineno)
        try:
            options[key] = int(value)
        except ValueError:
            raise ProblemFormatError(
                f"option '{key}' must be an integer", lineno) from None

    return ProblemFile(f=f, g=g, N=N, x0=x0, u_star=u_star,
                       parametrization=parametrization, hints=hints,
                       options=options, vars=vars0)


def _reject_unknown_keys(sec, name, known):
    for key, (_, lineno) in sec.items():
        if key not in known:
            raise ProblemFormatError(f"unknown key '{key}' in [{name}]",
                                     lineno)


def load_problem(path) -> ProblemFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}",
            data.count(b"\n", 0, exc.start) + 1) from None
    return loads_problem(text)


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def report_to_tree(report: TFLReport, mode: str, options: dict,
                   exit_code: int, error: str = None) -> dict:
    cond = report.conditions if report is not None else None
    tree = {
        "schema": SCHEMA,
        "mode": mode,
        "system": report.system_summary if report else None,
        "verdicts": None if cond is None else {
            "con": cond.con, "inv": cond.inv, "dim": cond.dim,
            "solvable": cond.all_hold,
        },
        "indices": None if cond is None else {
            "rho": list(cond.indices.rho),
            "kappa": list(cond.indices.kappa),
            "n_minus_nstar": cond.indices.n_minus_nstar,
        },
        "flag": None if report is None else {
            "generator_counts": list(report.flag_counts),
            # each flag entry is built at p0, where PfaffianIdeal.__init__
            # checks that its rank is its generator count
            "ranks_at_p0": list(report.flag_counts),
        },
        "closure_generator_counts": None if report is None
        else list(report.closure_counts),
        "dim_table": None if cond is None
        else {k: list(v) for k, v in cond.dim_table.items()},
        "inv_detail": None if cond is None
        else {str(k): v for k, v in cond.inv_detail.items()},
        "output": None,
        "zero_dynamics": None,
        "normal_form": None,
        "warnings": list(report.warnings) if report else [],
        "options": dict(options),
        "error": error,
        "exit_code": exit_code,
    }
    if report is not None and report.output is not None:
        out = report.output
        tree["output"] = {
            "components": [str(c) for c in out.components],
            "kappa": list(out.kappa),
            "decoupling_at_x0": [[v for v in row]
                                 for row in out.decoupling.tolist()],
            "provenance": list(out.provenance),
        }
    if report is not None and report.zero_dynamics is not None:
        tree["zero_dynamics"] = {
            "levels": {str(k): [str(d) for d in defs]
                       for k, defs in sorted(report.zero_dynamics.levels.items())}
        }
    if report is not None and report.normal_form is not None:
        nf = report.normal_form
        tree["normal_form"] = {
            "xi": [[str(c) for c in tower] for tower in nf.xi],
            "eta": [str(c) for c in nf.eta],
            "alpha": [str(a) for a in nf.alpha],
            "beta_at_x0": [[v for v in row] for row in nf.beta.tolist()],
            "beta_symbolic": [[str(b) for b in row] for row in nf.beta_sym],
            "jacobian_condition": nf.jacobian_condition,
        }
    return tree


def dumps_report(tree: dict) -> str:
    return json.dumps(tree, indent=2) + "\n"


def loads_report(text: str) -> dict:
    return json.loads(text)


def _run(problem: ProblemFile, conditions_only: bool, overrides=None):
    options = dict(problem.options)
    if overrides:
        options.update({k: v for k, v in overrides.items() if v is not None})
    if options["samples"] < 1:
        raise ProblemFormatError(
            f"option 'samples' must be at least 1, got {options['samples']}")
    if options["samples"] > MAX_SAMPLES:
        raise ProblemFormatError(
            f"option 'samples' must be at most {MAX_SAMPLES}, got "
            f"{options['samples']}")
    for key in ("ansatz_degree", "combo_degree"):
        if options[key] < 0:
            raise ProblemFormatError(
                f"option '{key}' must be at least 0, got {options[key]}")
    mode = "check" if conditions_only else "solve"
    try:
        report = run_tfl(problem.to_control_system(), hints=problem.hints,
                         n_samples=options["samples"], seed=options["seed"],
                         ansatz_degree=options["ansatz_degree"],
                         combo_degree=options["combo_degree"],
                         conditions_only=conditions_only)
    except IntegrationFailed as exc:
        return None, report_to_tree(None, mode, options, EXIT_INTEGRATION,
                                    error=str(exc)), EXIT_INTEGRATION
    except AdaptationFailed as exc:
        return None, report_to_tree(None, mode, options, EXIT_ADAPTATION,
                                    error=str(exc)), EXIT_ADAPTATION
    except CertificateMismatch as exc:
        return None, report_to_tree(None, mode, options, EXIT_INTERNAL,
                                    error=str(exc)), EXIT_INTERNAL
    if conditions_only:
        code = EXIT_OK if report.conditions.all_hold else EXIT_CONDITIONS
    else:
        code = EXIT_OK if report.success else EXIT_CONDITIONS
    tree = report_to_tree(report, mode, options, code)
    return report, tree, code


def cmd_check(problem: ProblemFile, overrides=None):
    """Conditions-only run; never integrates."""
    return _run(problem, conditions_only=True, overrides=overrides)


def cmd_solve(problem: ProblemFile, overrides=None):
    """Full pipeline: conditions, construction, verification."""
    return _run(problem, conditions_only=False, overrides=overrides)


# ---------------------------------------------------------------------------
# human-readable rendering
# ---------------------------------------------------------------------------

def render_text(tree: dict, timings=None) -> str:
    lines = []
    push = lines.append
    sysinfo = tree.get("system")
    if sysinfo:
        push(f"system: n={sysinfo['n']} m={sysinfo['m']} "
             f"n*={sysinfo['n_star']}")
    if tree.get("error"):
        push(f"error: {tree['error']}")
    v = tree.get("verdicts")
    if v:
        mark = lambda b: "holds" if b else "FAILS"
        push(f"controllability (Con): {mark(v['con'])}")
        push(f"involutivity    (Inv): {mark(v['inv'])}")
        push(f"constant dim    (Dim): {mark(v['dim'])}")
    idx = tree.get("indices")
    if idx:
        push(f"rho   = {tuple(idx['rho'])}")
        push(f"kappa = {tuple(idx['kappa'])}")
    fl = tree.get("flag")
    if fl:
        push(f"derived flag generator counts: {tuple(fl['generator_counts'])}")
        push(f"pointwise ranks at p0:         {tuple(fl['ranks_at_p0'])}")
    out = tree.get("output")
    if out:
        push("transverse output:")
        for c, k in zip(out["components"], out["kappa"]):
            push(f"  relative degree {k}:  {c}")
    zd = tree.get("zero_dynamics")
    if zd:
        for k in sorted(zd["levels"], key=int, reverse=True):
            defs = zd["levels"][k]
            body = "R^n (no constraints)" if not defs else "; ".join(defs)
            push(f"Z^({k}): {body}")
    nf = tree.get("normal_form")
    if nf:
        push("normal form:")
        for i, tower in enumerate(nf["xi"], 1):
            push(f"  xi_{i} tower: " + "; ".join(tower))
        push("  eta: " + (", ".join(nf["eta"]) if nf["eta"] else "(none)"))
        push("  v_perp_i = alpha_i + beta_i u with")
        for i, a in enumerate(nf["alpha"], 1):
            push(f"    alpha_{i} = {a}")
        push(f"  jacobian condition number at x0: "
             f"{nf['jacobian_condition']:.6g}")
    for w in tree.get("warnings", []):
        push(f"warning: {w}")
    if timings:
        for name, dt in timings:
            push(f"timing: {name}: {dt:.2f}s")
    push(f"exit code: {tree['exit_code']}")
    return "\n".join(lines) + "\n"
