"""Lint: the mathematical code computes without floating point.

Every module of the package is parsed with ast and rejected if it holds a
float (or complex) literal, calls float(), names the float type anywhere
else (as in `dtype=float`), names a numpy float type (`np.float64`,
`np.double`, `np.floating`, ...), or raises to the power 0.5.  The only
exemption is the wall-clock `elapsed_ms` value in report.py, which is
outside the determinism contract.

The lint sees syntax, not types: it cannot see a float produced by true
division of two integers (`int / int`), nor one returned by a library
call.  Those stay the reviewer's job.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentangle"

#: numpy attribute names of floating-point types and of their base class
NUMPY_FLOAT_TYPES = {"float16", "float32", "float64", "float96", "float128",
                     "half", "single", "double", "longdouble", "floating"}


def _exempt_nodes(tree: ast.AST, filename: str) -> set[int]:
    """ids of the nodes inside `elapsed_ms = ...` assignments of report.py."""
    if filename != "report.py":
        return set()
    exempt = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "elapsed_ms"
                        for t in node.targets)):
            exempt.update(id(sub) for sub in ast.walk(node.value))
    return exempt


def _float_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = _exempt_nodes(tree, path.name)
    found = []
    called = set()
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append("%s:%d float literal %r" % (path.name, node.lineno, node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append("%s:%d float() call" % (path.name, node.lineno))
            called.add(id(node.func))
        elif (isinstance(node, ast.Name) and node.id == "float"
              and id(node) not in called):
            found.append("%s:%d float name" % (path.name, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_FLOAT_TYPES:
            found.append("%s:%d numpy float type %s" % (path.name, node.lineno, node.attr))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
              and isinstance(node.right, ast.Constant) and node.right.value == 0.5):
            found.append("%s:%d ** 0.5" % (path.name, node.lineno))
    return found


def test_no_floats_in_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"probe.py", "report.py", "scalars.py"} <= {path.name for path in paths}
    assert [use for path in paths for use in _float_uses(path)] == []


def test_lint_catches_each_pattern(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("a = 5.0\nb = float(3)\nc = 9 ** 0.5\nd = 3 / 2\n"
                      "e = np.zeros(3, dtype=float)\nf = isinstance(e, float)\n"
                      "g = np.float64(1)\nh = np.float32\ni = np.double\n"
                      "j = np.issubdtype(g, np.floating)\nk = np.int64(1)\n")
    assert sorted(use.split(" ", 1)[1] for use in _float_uses(sample)) == sorted([
        "float literal 5.0", "float() call", "** 0.5", "float literal 0.5",
        "float name", "float name", "numpy float type float64",
        "numpy float type float32", "numpy float type double",
        "numpy float type floating"])
    assert sorted(use.split(" ", 1)[0] for use in _float_uses(sample)
                  if "name" in use) == ["sample.py:5", "sample.py:6"]


def test_exemption_covers_only_elapsed_ms(tmp_path):
    report = tmp_path / "report.py"
    report.write_text("elapsed_ms = round(t * 1000.0, 3)\nother = 1000.0\n")
    assert _float_uses(report) == ["report.py:2 float literal 1000.0"]
