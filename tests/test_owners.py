"""Each decision of the integrate/certificate layer has one owner: no
module but numlin tests a row against a span itself (the others keep
components through `numlin.extend_basis`), and algorithm reads a verdict
on N only through `ControlSystem.certify_vanishing`, the one place where a
sampled verdict becomes a warning."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tflkit"


def _uses(tree, name):
    """Lines that call, reference or import `name`."""
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == name for alias in node.names):
                yield node.lineno


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_only_numlin_tests_a_row_against_a_span():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "numlin.py"
             for line in _uses(_tree(path), "extends_span")]
    assert found == []


def test_algorithm_certifies_vanishing_in_one_place():
    tree = _tree(SRC / "algorithm.py")
    assert list(_uses(tree, "vanishes_on_N")) == []
    assert list(_uses(tree, "certify_vanishing"))


def test_the_check_sees_each_pattern():
    code = ("keep = numlin.extends_span(rows, row)\n"
            "from .numlin import extends_span\n"
            "test = extends_span\n"
            "v = sys.vanishes_on_N(e, samples=samples)\n"
            "ok = numlin.extend_basis(rows, [row])\n")
    tree = ast.parse(code)
    assert sorted(_uses(tree, "extends_span")) == [1, 2, 3]
    assert list(_uses(tree, "vanishes_on_N")) == [4]
