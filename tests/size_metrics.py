"""The two size metrics of the package, from the standard library only:
the line count of src/tflkit (as `wc -l src/tflkit/*.py` totals it, and
file by file) and the number of defaulted parameters over every `def` and
`lambda` there (positional and keyword-only defaults alike).

    python tests/size_metrics.py

prints one line per metric and, where the environment names a job summary
file (GITHUB_STEP_SUMMARY), appends a small Markdown table to it.
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


def main():
    found = metrics()
    for name, value in found.items():
        print(f"{name}: {value}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write("| size metric | value |\n|---|---|\n")
            for name, value in found.items():
                fh.write(f"| {name} | {value} |\n")


if __name__ == "__main__":
    main()
