"""Command-line front end: `tflkit check <file>` and `tflkit solve <file>`."""

from __future__ import annotations

import argparse
import sys
import time

from .errors import TflError
from .problem import (EXIT_USAGE, cmd_check, cmd_solve, dumps_report,
                      load_problem, render_text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tflkit",
        description="Decide transverse feedback linearizability and "
                    "construct the transverse output and normal form.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("check", "evaluate the (Con)/(Inv)/(Dim) conditions only"),
            ("solve", "run the full construction and verification")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="problem file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the sampling seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override the number of on-manifold samples")
        p.add_argument("--ansatz-degree", type=int, default=None,
                       dest="ansatz_degree",
                       help="override the adaptation ansatz degree")
        p.add_argument("--json", metavar="OUT", default=None,
                       help="write the structured report to OUT ('-' for "
                            "stdout)")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable report")
        p.add_argument("--timings", action="store_true",
                       help="append wall-clock timings to the text report "
                            "(never part of the JSON)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        problem = load_problem(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    overrides = {"seed": args.seed, "samples": args.samples,
                 "ansatz_degree": args.ansatz_degree}
    runner = cmd_check if args.command == "check" else cmd_solve
    try:
        _report, tree, code = runner(problem, overrides)
    except TflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed = time.monotonic() - t0
    if args.json:
        payload = dumps_report(tree)
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            try:
                with open(args.json, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
    if not args.quiet:
        timings = [("total", elapsed)] if args.timings else None
        sys.stdout.write(render_text(tree, timings=timings))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
