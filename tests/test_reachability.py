"""Lint: every function of the package is reached by a default run, or
it is named in ALLOWED with the reason it stays.

A fresh interpreter installs a profiler before it imports the package,
so helpers that run at import time count as reached.  It then runs the
default `report.run`, renders the report as JSON and as markdown and
takes its exit status, and prints the (file, qualified name) of every
code object of the package it entered.  The names come from the code
objects' `co_qualname`, and the definitions from walking each module's
`ast` with the same naming rule (`Class.method`, `outer.<locals>.inner`).
Keying on the line instead would flag every decorated function: the
line of a code object is that of its first decorator.

A function is left out of the comparison by rule when its name is a
dunder.  Every other unreached function must be in ALLOWED, and an
entry of ALLOWED that the run reaches, or that no longer names a
definition, fails the lint too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pentangle"

_CLI = "CLI entry point; the run is reached through report.run"
_CACHE = ("point cache; perfbench's cached samples still fill it, and "
          "removing the cache also removes these")

#: (module file, qualified name) -> why a default run does not reach it
ALLOWED = {
    ("cli.py", "main"): _CLI,
    ("cli.py", "run_command"): _CLI,
    ("cli.py", "report_command"): _CLI,
    ("cli.py", "_parse_a_values"): _CLI,
    ("checks.py", "error_text"): "error path: turns a raised exception into "
                                 "a failing claim",
    ("moore.py", "excluded_moduli"): "off-default input: the Cyclo branch of "
                                     "is_admissible_modulus",
    ("scalars.py", "RatFunc.const_value"): "off-default input: a constant "
                                           "RatFunc modulus",
    ("scalars.py", "RatFunc.eval"): "off-default input: specialize_modulus "
                                    "on a coefficient whose denominator is "
                                    "not a power of a",
    ("scalars.py", "UniPoly.eval"): "off-default input: RatFunc.eval "
                                    "evaluates through it",
    ("scalars.py", "embed_cyclo_in_prime_field"): "demo API: demo 01 and the "
                                                  "cross-route tests",
    ("probe.py", "CremonaWitness.apply_forward"): "demo API: demo 07",
    ("probe.py", "CremonaWitness.apply_inverse"): "demo API: demo 07",
    ("probe.py", "_cache_path"): _CACHE,
    ("probe.py", "_point_payload"): _CACHE,
    ("probe.py", "write_point_cache"): _CACHE,
    ("probe.py", "read_point_cache"): _CACHE,
}

#: run in a fresh interpreter: prints the sorted [file, qualname] pairs
#: of the package's code objects entered on import and in a default run
_PROFILED_RUN = """
import json, sys
package = sys.argv[1]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(package):
            entered.add((code.co_filename[len(package):], code.co_qualname))

sys.setprofile(profile)
from pentangle import report
result = report.run(report.make_config())
for fmt in report.REPORT_FORMATS:
    report.render_report(result, fmt)
report.exit_status(result)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _qualnames(tree: ast.Module) -> set[str]:
    """The qualified names of every function defined in the module, as
    Python gives them to its code objects."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.add(name)
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _defined() -> set[tuple[str, str]]:
    return {(path.name, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for name in _qualnames(ast.parse(path.read_text(encoding="utf-8")))}


def _reached() -> set[tuple[str, str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, "-c", _PROFILED_RUN, str(PACKAGE) + os.sep],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return {tuple(pair) for pair in json.loads(result.stdout)}


def _is_dunder(qualname: str) -> bool:
    name = qualname.rsplit(".", 1)[-1]
    return len(name) > 4 and name.startswith("__") and name.endswith("__")


def _problems(defined: set, reached: set, allowed) -> list[str]:
    """Unreached functions outside the allowed list, then allowed entries
    that are reached or not defined."""
    unreached = {key for key in defined - reached if not _is_dunder(key[1])}
    out = ["unreached and not allowed: %s %s" % key
           for key in sorted(unreached - set(allowed))]
    out += ["allowed but reached: %s %s" % key
            for key in sorted(set(allowed) & reached)]
    out += ["allowed but not defined: %s %s" % key
            for key in sorted(set(allowed) - defined)]
    return out


def test_default_run_reaches_every_function_outside_the_allowed_list():
    assert _problems(_defined(), _reached(), ALLOWED) == []


def test_every_allowed_entry_gives_a_reason():
    assert all(isinstance(reason, str) and reason.strip()
               for reason in ALLOWED.values())


def test_qualnames_follow_code_object_naming():
    source = ("import functools\n"
              "def top():\n"
              "    def inner():\n"
              "        pass\n"
              "    return inner\n"
              "class Box:\n"
              "    @property\n"
              "    def size(self):\n"
              "        return 1\n"
              "    @classmethod\n"
              "    def make(cls):\n"
              "        return cls()\n"
              "    class Lid:\n"
              "        def open(self):\n"
              "            pass\n"
              "if True:\n"
              "    @functools.wraps(top)\n"
              "    def guarded():\n"
              "        pass\n")
    namespace = {}
    exec(compile(source, "<sample>", "exec"), namespace)
    box = namespace["Box"]
    actual = {namespace["top"]().__code__.co_qualname,
              namespace["top"].__code__.co_qualname,
              box.size.fget.__code__.co_qualname,
              box.make.__func__.__code__.co_qualname,
              box.Lid.open.__code__.co_qualname,
              namespace["guarded"].__code__.co_qualname}
    assert _qualnames(ast.parse(source)) == actual


def test_problems_flag_unlisted_and_stale_entries():
    defined = {("a.py", "used"), ("a.py", "spare"), ("a.py", "C.__eq__"),
               ("a.py", "listed"), ("a.py", "listed_but_used")}
    reached = {("a.py", "used"), ("a.py", "listed_but_used")}
    allowed = {("a.py", "listed"): "demo", ("a.py", "listed_but_used"): "demo",
               ("a.py", "gone"): "demo"}
    assert _problems(defined, reached, allowed) == [
        "unreached and not allowed: a.py spare",
        "allowed but reached: a.py listed_but_used",
        "allowed but not defined: a.py gone"]
