"""The coefficient and monomial formats of Expr are a decision of expr.py
alone: no other module of the package imports its private helpers, builds
an Expr from raw polynomial dicts, reads the packed monomial layout of a
VariableSpace, or touches the polynomials of an Expr other than to count
their terms."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tflkit"

POLYNOMIALS = {"num", "den"}
LAYOUT = {"_units", "_degree_unit"}


def _violations(tree):
    # .num and .den nodes inside len(...), and those that the dict literal
    # comparison below reports
    seen = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len" and len(node.args) == 1):
            seen.add(id(node.args[0]))
        elif isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if any(isinstance(s, ast.Dict) for s in sides):
                seen.update(id(s) for s in sides)
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module == "expr"
                and node.level == 1):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"imports {alias.name} from .expr"
        elif (isinstance(node, ast.Attribute) and node.attr == "_make"
              and isinstance(node.value, ast.Name)
              and node.value.id == "Expr"):
            yield node.lineno, "calls Expr._make"
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT:
            yield node.lineno, f"reads the monomial layout {node.attr}"
        elif (isinstance(node, ast.Attribute) and node.attr in POLYNOMIALS
              and id(node) not in seen):
            yield node.lineno, f"uses .{node.attr} other than to count terms"
        elif isinstance(node, ast.Compare):
            sides = [node.left] + node.comparators
            if (any(isinstance(s, ast.Attribute) and s.attr == "den"
                    for s in sides)
                    and any(isinstance(s, ast.Dict) for s in sides)):
                yield node.lineno, "compares .den with a dict literal"


def test_only_expr_knows_the_coefficient_format():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "expr.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}"
                  for line, what in _violations(tree)]
    assert found == []


def test_the_check_sees_each_pattern():
    code = ("from .expr import Expr, _p_mul\n"
            "e = Expr._make(v, {(): 1}, {(): 1}, {})\n"
            "if c.den != {(): Fraction(1)}:\n"
            "    pass\n"
            "t = {(): e}\n")
    assert sorted(line for line, _ in _violations(ast.parse(code))) == [1, 2, 3]


def test_the_check_sees_monomials_outside_expr():
    code = ("size = len(e.num) + len(e.den)\n"
            "for m in e.num:\n"
            "    pass\n"
            "lead = max(e.den)\n"
            "c = e.num[0]\n"
            "terms = {m: c for m, c in e.num.items()}\n"
            "x = e.vars._units[1] + e.vars._degree_unit\n"
            "s = e.numerator()\n"
            "same = e.num == f.num\n")
    assert sorted(line for line, _ in _violations(ast.parse(code))) == [
        2, 4, 5, 6, 7, 7, 9, 9]
