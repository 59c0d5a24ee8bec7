"""Lint: the package keeps no process-wide memo of its results.

A memo at module level hands every caller the same object, so one
caller's mutation reaches the next, and a result computed once can be
reported again without being computed.  Every module of the package is
parsed with ast and rejected if it has

  * a `global` statement;
  * inside a function, a subscript store (`NAME[key] = ...`, also
    augmented or deleted) or a call of a mutating method (`update`,
    `setdefault`, `append`, `pop`, `clear`) on a module-level name that
    the function does not bind itself;
  * `lru_cache` or `cache` from functools anywhere, except as the
    decorator of `scalars._inverse_table`, whose result is a read-only
    array.

The lint sees syntax, not objects: a memo kept as an attribute of a
long-lived object (`curve._points`) is not module state and is not
flagged, and neither is mutation through an alias of a module-level
name.  Those stay the reviewer's job.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentangle"

MUTATORS = {"update", "setdefault", "append", "pop", "clear"}
CACHE_NAMES = {"lru_cache", "cache"}
#: the one function allowed a functools cache: (file name, function name)
ALLOWED_CACHE = ("scalars.py", "_inverse_table")


def _module_names(tree: ast.Module) -> set[str]:
    """Names bound by assignments at the top level of the module."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            names.update(sub.id for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def _local_names(func: ast.AST) -> set[str]:
    """Parameters and names the function binds in its own body."""
    args = func.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _allowed_cache_nodes(tree: ast.Module, filename: str) -> set[int]:
    """ids of the nodes of the allowed decorator and of its import."""
    if filename != ALLOWED_CACHE[0]:
        return set()
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == ALLOWED_CACHE[1]:
            for deco in node.decorator_list:
                allowed.update(id(sub) for sub in ast.walk(deco))
        elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
              and [(a.name, a.asname) for a in node.names]
              == [("lru_cache", None)]):
            allowed.add(id(node))
    return allowed


def _memo_uses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    module_names = _module_names(tree)
    allowed = _allowed_cache_nodes(tree, path.name)
    found = []

    def flag(node, what):
        found.append((node.lineno, what))

    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            flag(node, "global statement")
        elif id(node) in allowed:
            continue
        elif (isinstance(node, ast.ImportFrom) and node.module == "functools"
              and any(a.name in CACHE_NAMES for a in node.names)):
            flag(node, "functools cache import")
        elif isinstance(node, ast.Name) and node.id in CACHE_NAMES:
            flag(node, "functools cache %s" % node.id)
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES:
            flag(node, "functools cache %s" % node.attr)

    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        shared = module_names - _local_names(func)
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)
                    and node.value.id in shared):
                flag(node, "subscript store on module-level %s" % node.value.id)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared):
                flag(node, "%s() on module-level %s"
                     % (node.func.attr, node.func.value.id))
    return ["%s:%d %s" % (path.name, line, what)
            for line, what in sorted(set(found))]


def test_no_module_memos_in_package():
    paths = sorted(PACKAGE.glob("*.py"))
    assert {"hessepencil.py", "nslattice.py", "scalars.py"} <= {
        path.name for path in paths}
    assert [use for path in paths for use in _memo_uses(path)] == []


def test_lint_catches_each_pattern(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\n"
        "from functools import lru_cache\n"
        "CACHE = {}\n"
        "SEEN: list = []\n"
        "def a(k):\n"
        "    global STATE\n"
        "    CACHE[k] = 1\n"
        "    CACHE[k] += 1\n"
        "    del CACHE[k]\n"
        "    CACHE.update({})\n"
        "    CACHE.setdefault(k, 0)\n"
        "    SEEN.append(k)\n"
        "    SEEN.pop()\n"
        "    SEEN.clear()\n"
        "@lru_cache(maxsize=1)\n"
        "def b():\n"
        "    return {}\n"
        "@functools.cache\n"
        "def c():\n"
        "    return {}\n")
    assert [use.split(" ", 1)[1] for use in _memo_uses(sample)] == [
        "functools cache import", "global statement",
        "subscript store on module-level CACHE",
        "subscript store on module-level CACHE",
        "subscript store on module-level CACHE",
        "update() on module-level CACHE",
        "setdefault() on module-level CACHE", "append() on module-level SEEN",
        "pop() on module-level SEEN", "clear() on module-level SEEN",
        "functools cache lru_cache", "functools cache cache"]


def test_lint_passes_local_state_and_read_only_use(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "TABLE = {}\n"
        "for k in range(3):\n"
        "    TABLE[k] = k\n"
        "def a(k, out):\n"
        "    out[k] = TABLE[k]\n"
        "    local = {}\n"
        "    local[k] = 1\n"
        "    local.update(TABLE)\n"
        "    return local.pop(k)\n"
        "def b(TABLE):\n"
        "    TABLE[0] = 1\n")
    assert _memo_uses(sample) == []


def test_allowance_covers_only_the_inverse_table(tmp_path):
    scalars = tmp_path / "scalars.py"
    scalars.write_text("from functools import lru_cache\n"
                       "@lru_cache(maxsize=None)\n"
                       "def _inverse_table(p):\n"
                       "    return p\n"
                       "@lru_cache(maxsize=None)\n"
                       "def _other(p):\n"
                       "    return p\n")
    assert _memo_uses(scalars) == ["scalars.py:5 functools cache lru_cache"]
