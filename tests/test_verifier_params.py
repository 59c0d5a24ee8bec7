"""Lint: a suite verifier takes only what a run varies.

A run varies the curve scan a verifier certifies and the seed of its
draws.  A sample count, a prime list or a search cap that a caller could
set but no run does is a knob with a single value; it belongs in one
named module constant next to its verifier.  Every top-level public
function of the package named verify_*, certify_*, validate_*, find_*
or interpolate_* is parsed with ast and rejected if it takes a parameter
other than scan or seed.  Exempt are moore's modulus inputs (a, mm),
which a run does vary per (p, a) pair, and
scalars.find_root_of_unity(p, n), a field lookup and not a verifier.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentangle"

PREFIXES = ("verify_", "certify_", "validate_", "find_", "interpolate_")
ALLOWED = {"scan", "seed"}
#: further parameters one function may take: "module.function" -> names
EXEMPT = {
    "moore.verify_matrix_identities": {"a", "mm"},
    "moore.verify_span_claims": {"mm"},
    "scalars.find_root_of_unity": {"p", "n"},
}


def _verifier_params(path: Path) -> dict[str, list[str]]:
    """"module.function" -> parameter names, for each verifier of a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = {}
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith(PREFIXES)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            out["%s.%s" % (path.stem, node.name)] = params
    return out


def _knobs(path: Path) -> list[str]:
    return ["%s(%s)" % (name, param)
            for name, params in _verifier_params(path).items()
            for param in params
            if param not in ALLOWED | EXEMPT.get(name, set())]


def test_verifiers_take_only_scan_and_seed():
    paths = sorted(PACKAGE.glob("*.py"))
    found = {}
    for path in paths:
        found.update(_verifier_params(path))
    # the lint sees the verifiers the run calls
    assert found["probe.certify_incidence"] == ["scan", "seed"]
    assert found["hessepencil.find_torsion_witness"] == []
    assert found["moore.verify_span_claims"] == ["mm"]
    assert [knob for path in paths for knob in _knobs(path)] == []


def test_lint_catches_each_knob(tmp_path):
    sample = tmp_path / "moore.py"
    sample.write_text(
        "def verify_a(seed=1, samples=5):\n"
        "    pass\n"
        "def certify_b(scan, *, lines=60):\n"
        "    pass\n"
        "def find_c(*primes):\n"
        "    pass\n"
        "def interpolate_d(scan, **options):\n"
        "    pass\n"
        "def validate_e(a):\n"
        "    pass\n"
        "def verify_span_claims(mm, p):\n"
        "    pass\n"
        "def _verify_private(samples):\n"
        "    pass\n"
        "def helper(samples):\n"
        "    pass\n")
    assert _knobs(sample) == [
        "moore.verify_a(samples)", "moore.certify_b(lines)",
        "moore.find_c(primes)", "moore.interpolate_d(options)",
        "moore.validate_e(a)", "moore.verify_span_claims(p)"]
