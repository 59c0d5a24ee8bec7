"""Lint: only multipoly knows the packed monomial layout.

A MultiPoly keeps one packed int per monomial, laid out as multipoly's
module docstring describes.  Every other module reads terms through
term_items() and transforms them through MultiPoly's methods, so a
change to the packing touches one file.  Every module of the package
but multipoly is parsed with ast and rejected if it imports a name of
the layout from multipoly, or reads one as an attribute of the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentangle"

#: the names that expose the packed layout
LAYOUT = {"FIELD_BITS", "FIELD_MASK", "_mk", "_pack", "_unpack", "_guard", "_grevlex"}


def _layout_uses(path: Path) -> list[str]:
    """"module:name" for each layout name a file takes from multipoly."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "multipoly"):
            out += ["%s:%s" % (path.stem, alias.name) for alias in node.names
                    if alias.name in LAYOUT or alias.name == "*"]
        elif (isinstance(node, ast.Attribute) and node.attr in LAYOUT
              and isinstance(node.value, ast.Name) and node.value.id == "multipoly"):
            out.append("%s:%s" % (path.stem, node.attr))
    return out


def test_only_multipoly_reads_the_packed_layout():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "multipoly"]
    # the lint sees the modules that use MultiPoly
    assert {"moore", "heisenberg", "hessepencil"} <= {path.stem for path in paths}
    assert [use for path in paths for use in _layout_uses(path)] == []


def test_lint_catches_each_layout_use(tmp_path):
    sample = tmp_path / "moore.py"
    sample.write_text(
        "from .multipoly import (\n"
        "    FIELD_BITS,\n"
        "    FIELD_MASK,\n"
        "    MultiPoly,\n"
        "    _mk,\n"
        ")\n"
        "from pentangle.multipoly import _pack, monomials\n"
        "from .scalars import _power\n"
        "from . import multipoly\n"
        "def rotate(key):\n"
        "    return multipoly._unpack(key, 5), multipoly._guard(5)\n"
        "def order():\n"
        "    from .multipoly import _grevlex\n"
        "    return _grevlex(5), multipoly.monomials(2, 5)\n")
    assert sorted(_layout_uses(sample)) == sorted([
        "moore:FIELD_BITS", "moore:FIELD_MASK", "moore:_mk", "moore:_pack",
        "moore:_unpack", "moore:_guard", "moore:_grevlex"])
