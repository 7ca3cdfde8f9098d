"""Each decision of the integrate/certificate layer has one owner: no
module but numlin tests a row against a span itself (the others keep
components through `numlin.extend_basis`), algorithm reads a verdict on N
only through `ControlSystem.certify_vanishing`, the one place where a
sampled verdict becomes a warning, conditions decides every pointwise
condition from `numlin.intersection_dim` in its one point table, and each
integrated component is classified as vanishing on L or not once, in
`frobenius_integrate`.  And src/tflkit holds only what a run reads: every
public definition is referenced from the package's own modules, bar a short
list kept for callers outside it, and no module imports a name it does not
use."""

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


def _numlin_names(tree):
    """numlin names that the module reaches: `numlin.X` and
    `from .numlin import X`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "numlin"):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "numlin":
            yield from (alias.name for alias in node.names)


def _callers(tree, name):
    """Top-level definitions that reference `name` ("<module>" for a
    reference outside them)."""
    for node in tree.body:
        if list(_uses(node, name)):
            yield getattr(node, "name", "<module>")


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


def test_conditions_decides_from_intersection_dimensions():
    assert set(_numlin_names(_tree(SRC / "conditions.py"))) \
        == {"intersection_dims"}


def test_one_point_table_in_conditions():
    # apart from the imports, only the table builds Ann(T_pL) and the
    # pointwise spans it is intersected with
    tree = _tree(SRC / "conditions.py")
    tree.body = [node for node in tree.body
                 if not isinstance(node, ast.ImportFrom)]
    for name in ("ann_tangent_L", "_span_with_dt"):
        assert list(_callers(tree, name)) == ["_PointTable"]


PRIMAL_NAMES = ("VectorField", "contract", "coordinate_field")


def _defines_or_imports(tree, names):
    """(line, name) for each definition or import of one of `names`."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name in names):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.split(".")[-1] in names:
                    yield node.lineno, alias.name


def test_the_package_holds_no_primal_fields():
    # vector fields and their contraction live in tests/_brackets.py, the
    # oracle the dual side is checked against, and nowhere in the package
    found = [(path.name, line, name) for path in sorted(SRC.glob("*.py"))
             for line, name in _defines_or_imports(_tree(path),
                                                   PRIMAL_NAMES)]
    assert found == []


def test_the_primal_check_sees_each_pattern():
    code = ("from .forms import KForm, contract\n"
            "import tflkit.forms.coordinate_field\n"
            "class VectorField:\n"
            "    pass\n"
            "def wedge(a, b):\n"
            "    return contract(a, b)\n")
    assert sorted(_defines_or_imports(ast.parse(code), PRIMAL_NAMES)) == [
        (1, "contract"), (2, "tflkit.forms.coordinate_field"),
        (3, "VectorField")]


def test_the_size_metrics_count_each_pattern(tmp_path):
    from size_metrics import defaulted_parameters, metrics
    code = ("def f(a, b=1, *args, c, d=2, **kw):\n"
            "    g = lambda x, y=3: x\n"
            "class A:\n"
            "    async def h(self, z=None):\n"
            "        pass\n")
    assert defaulted_parameters(ast.parse(code)) == 4
    # the total and each file's line count, as `wc -l` gives them; a last
    # line without a newline is not counted
    (tmp_path / "b.py").write_text(code)
    (tmp_path / "a.py").write_text("x = 1\ny = 2")
    (tmp_path / "notes.txt").write_text("not\ncounted\n")
    assert metrics(tmp_path) == {
        "src/tflkit lines (wc -l)": 6,
        "defaulted parameters (def and lambda)": 4,
        "src/tflkit/a.py lines": 1,
        "src/tflkit/b.py lines": 5,
    }


def test_the_size_metrics_name_numpy_and_its_lapack(monkeypatch):
    import numpy
    from size_metrics import numpy_build
    found = numpy_build()
    assert found["numpy version"] == numpy.__version__
    assert found["LAPACK backend"] not in ("", "unknown")
    # numpy before 1.26 takes no mode
    monkeypatch.setattr(numpy, "show_config", lambda: None)
    assert numpy_build() == {"numpy version": numpy.__version__,
                             "LAPACK backend": "unknown"}


def test_components_classified_once():
    found = [(path.name, caller) for path in sorted(SRC.glob("*.py"))
             for caller in _callers(_tree(path), "_classify_and_order")]
    assert found == [("integrate.py", "frobenius_integrate")]


def test_the_ownership_checks_see_each_pattern():
    code = ("from .numlin import rank\n"
            "def f(a, b):\n"
            "    return numlin.intersection_dim(a, b)\n"
            "def g(c):\n"
            "    return _classify_and_order(c)\n"
            "h = _classify_and_order\n"
            "def _classify_and_order(c):\n"
            "    return sys.numlin\n")
    tree = ast.parse(code)
    assert sorted(_numlin_names(tree)) == ["intersection_dim", "rank"]
    assert list(_callers(tree, "_classify_and_order")) == ["g", "<module>"]


# Public definitions that no src/tflkit module reads, each kept on purpose.
KEPT_UNREFERENCED = {
    "expr.VariableSpace.canonical": "tests and demos build x1.., u1.. "
                                    "spaces with it",
    "expr.Point.of": "assertions read a coordinate of a point by name",
    "expr.Point.replace": "assertions move a point off L or N by name",
    "expr.Point.as_float_tuple": "assertions compare and perturb points "
                                 "as floats",
    "pfaffian.Flag.entry": "assertions read I^(k) off a flag",
    "problem.loads_report": "the inverse of dumps_report; assertions "
                            "parse reports with it",
}


def _references(trees):
    """(names, attributes, (base name, attribute) pairs) read anywhere in
    `trees`; import statements bind names but read none."""
    names, attrs, pairs = set(), set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    pairs.add((node.value.id, node.attr))
    return names, attrs, pairs


def _unreferenced(modules):
    """`module.name` and `module.Class.method` for each public top-level
    definition and public method of `modules` ({stem: tree}) that no
    module but `__init__` reads.  A function or class counts as read
    where its name is (after `from .module import name`, or in its own
    module) or where `module.name` is; a method, where any attribute of
    its name is."""
    names, attrs, pairs = _references(
        tree for stem, tree in modules.items() if stem != "__init__")
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (not node.name.startswith("_") and node.name not in names
                    and (stem, node.name) not in pairs):
                yield f"{stem}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if (isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_")
                            and sub.name not in attrs):
                        yield f"{stem}.{node.name}.{sub.name}"


def _unused_imports(tree):
    """Names a module imports and never reads (`__future__` aside)."""
    names, _, _ = _references([tree])
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in names:
                    yield bound


def test_every_public_definition_is_read_in_the_package():
    modules = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}
    assert sorted(_unreferenced(modules)) == sorted(KEPT_UNREFERENCED)


def test_no_unused_imports():
    found = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for name in _unused_imports(_tree(path))]
    assert found == []


def test_the_reference_checks_see_each_pattern():
    code = ("from __future__ import annotations\n"
            "import numpy as np\n"
            "from .expr import Expr, Point\n"
            "from . import numlin\n"
            "class A:\n"
            "    def used(self):\n"
            "        return numlin.rank(Expr)\n"
            "    def unused(self):\n"
            "        return self.used()\n"
            "def called():\n"
            "    return A().used\n"
            "def dead():\n"
            "    return called()\n"
            "def _private():\n"
            "    pass\n")
    tree = ast.parse(code)
    assert sorted(_unused_imports(tree)) == ["Point", "np"]
    other = ast.parse("from .m import called\nx = m.A\ny = called\n")
    found = sorted(_unreferenced({"m": tree, "n": other}))
    assert found == ["m.A.unused", "m.dead"]
    init = ast.parse("from .m import dead\nz = dead\n")
    found = sorted(_unreferenced({"m": tree, "__init__": init}))
    assert found == ["m.A.unused", "m.dead"]
