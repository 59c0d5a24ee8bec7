"""Lint: the mathematical code computes without floating point.

Every module of the package is parsed with ast and rejected if it holds a
float (or complex) literal, calls float(), or raises to the power 0.5.
The only exemption is the wall-clock `elapsed_ms` value in report.py,
which is outside the determinism contract.

The lint sees syntax, not types: it cannot see a float produced by true
division of two integers (`int / int`), nor one returned by a library
call.  Those stay the reviewer's job.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentangle"


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
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append("%s:%d float literal %r" % (path.name, node.lineno, node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append("%s:%d float() call" % (path.name, node.lineno))
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
    sample.write_text("a = 5.0\nb = float(3)\nc = 9 ** 0.5\nd = 3 / 2\n")
    assert [use.split(" ", 1)[1] for use in _float_uses(sample)] == [
        "float literal 5.0", "float() call", "** 0.5", "float literal 0.5"]


def test_exemption_covers_only_elapsed_ms(tmp_path):
    report = tmp_path / "report.py"
    report.write_text("elapsed_ms = round(t * 1000.0, 3)\nother = 1000.0\n")
    assert _float_uses(report) == ["report.py:2 float literal 1000.0"]
