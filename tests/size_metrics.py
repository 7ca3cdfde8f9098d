"""The two size metrics of the package, from the standard library only:
the line count of src/tflkit (as `wc -l src/tflkit/*.py` totals it, and
file by file) and the number of defaulted parameters over every `def` and
`lambda` there (positional and keyword-only defaults alike).  Beside
them, numpy's version and the LAPACK it was built with: every float rank
of the package is an SVD from that LAPACK, so a rank that changes across
numpy builds can be traced to the build.

    python tests/size_metrics.py

prints one line per metric and per build entry and, where the environment
names a job summary file (GITHUB_STEP_SUMMARY), appends a small Markdown
table of each to it.
"""

import ast
import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tflkit"


def line_count(paths):
    """Newlines over `paths`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in paths)


def defaulted_parameters(tree):
    """Parameters with a default over every def and lambda in `tree`."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def metrics(src=SRC):
    paths = sorted(src.glob("*.py"))
    return {
        "src/tflkit lines (wc -l)": line_count(paths),
        "defaulted parameters (def and lambda)": sum(
            defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
            for path in paths),
        **{f"src/tflkit/{path.name} lines": line_count([path])
           for path in paths},
    }


def numpy_build():
    """numpy's version and its LAPACK backend (name and version), as
    `numpy.show_config(mode="dicts")` gives it; numpy before 1.26 has no
    such mode, and its backend is reported as unknown."""
    import numpy
    try:
        lapack = numpy.show_config(mode="dicts")["Build Dependencies"][
            "lapack"]
        backend = f"{lapack['name']} {lapack['version']}"
    except (TypeError, KeyError):
        backend = "unknown"
    return {"numpy version": numpy.__version__, "LAPACK backend": backend}


def main():
    tables = {"size metric": metrics(), "numpy build": numpy_build()}
    for found in tables.values():
        for name, value in found.items():
            print(f"{name}: {value}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            for title, found in tables.items():
                fh.write(f"| {title} | value |\n|---|---|\n")
                for name, value in found.items():
                    fh.write(f"| {name} | {value} |\n")
                fh.write("\n")


if __name__ == "__main__":
    main()
