"""Statements of src/tflkit that no run executes.

Tier-1 and the three pinned-run scripts (check_sec5_edits.py,
check_chain_digests.py and check_sampled_runs.py) run in this process
under `sys.settrace`, which records every line executed in src/tflkit.
Each module's statements that none of them reached are then printed as
line numbers, runs of adjacent lines joined (`412-415`). A statement is
the first line of a statement of the module's syntax tree that its
compiled code holds an instruction on, so docstrings and other
statements without code are not counted. Code that runs only in a child
process counts as not run. Standard library only, besides pytest and
what the runs import.

    PYTHONPATH=src python tests/line_coverage.py

It is a report, not a gate: it exits 0 whatever it finds and prints the
runs' own exit codes beside the list.  Where the environment names a job
summary file (GITHUB_STEP_SUMMARY), the list is appended to it as
Markdown.  Tracing slows Tier-1 down several times over.
"""

import ast
import importlib
import os
import sys
import threading
import types
from itertools import groupby
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tflkit"
TESTS = ROOT / "tests"
PINNED = ("check_sec5_edits", "check_chain_digests", "check_sampled_runs")


def statements(path):
    """The first lines of the statements of `path` that hold code."""
    text = path.read_text(encoding="utf-8")
    code_lines, todo = set(), [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts
                    if isinstance(c, types.CodeType))
    return {node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.stmt)} & code_lines


def ranges(lines):
    """Sorted line numbers as text, runs of adjacent lines joined."""
    out = []
    for _, run in groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0]):
        run = [line for _, line in run]
        out.append(f"{run[0]}-{run[-1]}" if len(run) > 1 else f"{run[0]}")
    return ", ".join(out)


def traced(runs):
    """Run each (name, callable) under a line tracer on src/tflkit;
    return ({name: exit code}, {file name: executed lines})."""
    prefix = str(SRC) + os.sep
    wanted = {}       # code object -> is it in src/tflkit
    hits = set()      # (file name, line)

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        inside = wanted.get(code)
        if inside is None:
            inside = wanted[code] = code.co_filename.startswith(prefix)
        return local if inside else None

    codes = {}
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        for name, run in runs:
            codes[name] = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    executed = {}
    for filename, line in hits:
        executed.setdefault(filename, set()).add(line)
    return codes, executed


def tier1():
    return int(pytest.main(["-q", "-p", "no:cacheprovider",
                            "--rootdir", str(ROOT), str(TESTS)]))


def pinned(name):
    return lambda: importlib.import_module(name).main([])


def main():
    # tflkit is imported under the tracer, so its module-level code counts
    sys.path[:0] = [str(ROOT / "src"), str(TESTS)]
    codes, executed = traced([("Tier-1", tier1)]
                             + [(name, pinned(name)) for name in PINNED])
    report = []
    for path in sorted(SRC.glob("*.py")):
        todo = statements(path)
        missed = todo - executed.get(str(path), set())
        report.append((path.relative_to(ROOT).as_posix(), len(todo), missed))
    exits = "exit codes: " + ", ".join(f"{name} {code}"
                                       for name, code in codes.items())
    print(exits)
    for name, total, missed in report:
        print(f"{name}: {len(missed)} of {total} statements not run"
              + (f": {ranges(missed)}" if missed else ""))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write("### Statements no run executes\n\n"
                      "| module | statements | not run | lines |\n"
                      "|---|---|---|---|\n")
            for name, total, missed in report:
                out.write(f"| `{name}` | {total} | {len(missed)} | "
                          f"{ranges(missed)} |\n")
            out.write(f"\n{exits}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
