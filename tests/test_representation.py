"""The coefficient format of Expr is a decision of expr.py alone: no other
module of the package imports its private helpers, builds an Expr from raw
polynomial dicts, or compares a denominator with a dict literal."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tflkit"


def _violations(tree):
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
