"""Verification run orchestration and report rendering.

A run executes a configurable subset of the package's certification
suites, flattens every individual check into a claim record, and returns
a single report dictionary that serializes to JSON or renders as
markdown.  Claims carry a stable content-derived id, a pass/fail status
(with a soft- prefix for statistical envelope checks), and the witness
detail produced by the underlying suite.

Determinism contract: two runs with the same configuration produce
byte-identical JSON reports except for the elapsed_ms fields, which
record wall time.  Every randomized suite draws its seed from the run
seed and the suite name, so claim statuses and witnesses never depend
on timing, suite selection order, or cache state.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass
from math import isqrt

from . import __version__, heisenberg, hessepencil, moore, nslattice, probe
from . import sections as sections_mod
from .checks import Checks
from .scalars import DEFAULT_PRIMES, EPS3, Fp

#: canonical execution order; scan precedes the suites that reuse its
#: point lists so a shared scan is built exactly once per (p, a)
SUITE_ORDER = ("hesse", "heisenberg", "sections", "moore", "lattice",
               "scan", "secants", "incidence", "cremona")

#: suites that consume a prime-field curve scan
_SCAN_CONSUMERS = frozenset({"scan", "secants", "incidence", "cremona"})

#: suites whose claims are instantiated once per (prime, modulus) pair
_PAIR_SUITES = frozenset({"moore", "scan", "secants", "incidence", "cremona"})

REPORT_FORMATS = ("json", "markdown")


@dataclass(frozen=True)
class RunConfig:
    """Frozen description of one verification run.

    Build instances through make_config, which normalizes and validates
    every field; the dataclass itself stores already-clean values.
    """

    primes: tuple
    a_values: tuple | str
    seed: int
    symbolic_a: bool
    suites: tuple
    cache_dir: str | None
    report_format: str


def make_config(primes=(31, 61), a_values="auto", seed=42, symbolic_a=True,
                suites="all", cache_dir=None, report_format="json") -> RunConfig:
    """Validate and canonicalize run parameters into a RunConfig.

    suites may be "all", a single name, or an iterable of names; the
    stored tuple always follows SUITE_ORDER regardless of input order.
    a_values is either the string "auto" (two admissible moduli per
    prime) or an iterable of integers applied to every selected prime.
    """
    primes = tuple(dict.fromkeys(int(p) for p in primes))
    for p in primes:
        if p not in probe.SUPPORTED_PRIMES:
            raise ValueError("unsupported prime %d; supported: %s"
                             % (p, list(probe.SUPPORTED_PRIMES)))
    if not primes:
        raise ValueError("at least one prime is required")

    if isinstance(a_values, str):
        if a_values != "auto":
            raise ValueError("a_values must be 'auto' or a sequence of ints")
    else:
        a_values = tuple(dict.fromkeys(int(a) for a in a_values))
        if not a_values:
            raise ValueError("a_values sequence is empty")

    if isinstance(suites, str):
        suites = SUITE_ORDER if suites == "all" else (suites,)
    requested = set(suites)
    unknown = requested.difference(SUITE_ORDER)
    if unknown:
        raise ValueError("unknown suites %s; known: %s"
                         % (sorted(unknown), list(SUITE_ORDER)))
    if not requested:
        raise ValueError("at least one suite is required")
    suites = tuple(s for s in SUITE_ORDER if s in requested)

    if report_format not in REPORT_FORMATS:
        raise ValueError("report_format must be one of %s" % (REPORT_FORMATS,))

    return RunConfig(primes=primes, a_values=a_values, seed=int(seed),
                     symbolic_a=bool(symbolic_a), suites=suites,
                     cache_dir=None if cache_dir is None else str(cache_dir),
                     report_format=report_format)


def suite_seed(seed: int, suite: str) -> int:
    """Stable per-suite seed derived from the run seed and suite name.

    Keeps suite randomness independent of selection order: dropping one
    suite from the run never changes another suite's draws.
    """
    digest = hashlib.sha256(("%d:%s" % (seed, suite)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_pairs(config: RunConfig) -> tuple[tuple[int, int], ...]:
    """Concrete (prime, modulus) pairs for the per-pair suites."""
    pairs = []
    for p in config.primes:
        if config.a_values == "auto":
            moduli = probe.admissible_moduli(p, 2)
        else:
            moduli = config.a_values
            excluded = moore.excluded_modulus_residues(p)
            bad = [a for a in moduli if a % p in excluded]
            if bad:
                raise ValueError("moduli %s are excluded residues mod %d"
                                 % (bad, p))
        pairs.extend((p, int(a) % p) for a in moduli)
    return tuple(pairs)


# -- claim construction ------------------------------------------------


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")


def _claim(suite: str, name: str, passed: bool, witness: str,
           soft: bool = False, context: str = "") -> dict:
    ident = "%s:%s" % (suite, _slug(name))
    statement = name
    if context:
        ident += "@" + context
        statement += " [%s]" % context
    status = ("soft-" if soft else "") + ("pass" if passed else "fail")
    return {"suite": suite, "id": ident, "statement": statement,
            "status": status, "witness": witness}


def _error_text(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def _claims_from_report(suite: str, report: dict, context: str = "") -> list:
    return [_claim(suite, check["name"], check["passed"],
                   check.get("detail", ""), soft=bool(check.get("soft")),
                   context=context)
            for check in report["checks"]]


def _op_claims(suite: str, op_name: str, thunk, context: str = "") -> list:
    """Run one verification op; an exception becomes a failing claim
    instead of aborting the rest of the run."""
    try:
        report = thunk()
    except Exception as exc:  # pragma: no cover - exercised via stubs
        return [_claim(suite, op_name + " completes", False,
                       _error_text(exc), context=context)]
    return _claims_from_report(suite, report, context)


def _pair_tag(p: int, a: int) -> str:
    return "p%d-a%d" % (p, a)


# -- suite runners -----------------------------------------------------


def _run_hesse(config, pairs, scans):
    seed = suite_seed(config.seed, "hesse")
    claims = []
    claims += _op_claims("hesse", "sum of cubes identities",
                         hessepencil.verify_fermat_identities)
    claims += _op_claims("hesse", "split pencil members",
                         hessepencil.verify_triangle_members)
    claims += _op_claims("hesse", "diagonal intersection arithmetic",
                         lambda: hessepencil.verify_intersection_arithmetic(
                             seed=seed))
    claims += _op_claims("hesse", "base point translation action",
                         hessepencil.verify_translation_action)
    claims += _op_claims("hesse", "collinearity reduction on witness curve",
                         lambda: hessepencil.verify_six_secant_criterion(
                             seed=seed))
    return claims


#: the commutator scalars certified by the heisenberg suite; each row is
#: (claim name, commutator_scalar kwargs, expected scalar)
_COMMUTATOR_CASES = (
    ("commutator scalar, level three standard twist",
     {"level": 3, "twist": 1}, EPS3.inverse()),
    ("commutator scalar, level three opposite twist",
     {"level": 3, "twist": -1}, EPS3),
    ("commutator scalar, level fifteen fifth powers",
     {"level": 15, "sigma_power": 5, "tau_power": 5}, EPS3),
)


def _run_heisenberg(config, pairs, scans):
    checks = Checks()
    for name, kwargs, expected in _COMMUTATOR_CASES:
        try:
            value = heisenberg.commutator_scalar(**kwargs)
        except Exception as exc:
            checks.add(name, False, _error_text(exc))
        else:
            checks.add(name, value == expected,
                       "computed %s, expected %s" % (value, expected))

    try:
        table = heisenberg.validate_character_table()
    except Exception as exc:
        checks.add("character table validates", False, _error_text(exc))
    else:
        dims = table["dims"]
        dims_ok = (dims.get((0, 0)) == 2 and sum(dims.values()) == 10
                   and all(v == 1 for k, v in dims.items() if k != (0, 0)))
        checks.add("degree three eigenspace dimensions", dims_ok,
                   "total %d; %s" % (sum(dims.values()),
                                     ", ".join("(%d,%d): %d" % (k[0], k[1], v)
                                               for k, v in sorted(dims.items()))))
        labels = [m["label"] for m in table["mismatches"]]
        flagged = "; ".join("label %s recorded %s, computed %s"
                            % (m["label"], m["recorded"], m["computed"])
                            for m in table["mismatches"]) or "none"
        checks.add("character listing mismatch flagged", labels == [(2, 2)],
                   "mismatched labels %s; %s" % (labels, flagged))
    return _claims_from_report("heisenberg", {"checks": checks.records})


def _run_sections(config, pairs, scans):
    return _op_claims("sections", "quintic section symmetries",
                      sections_mod.verify_section_symmetries)


def _run_moore(config, pairs, scans):
    claims = []
    if config.symbolic_a:
        claims += _op_claims("moore", "matrix identities",
                             lambda: moore.verify_matrix_identities(None),
                             context="symbolic")

        def span_symbolic():
            a = moore.symbolic_modulus()
            return moore.verify_span_claims(moore.build_moore_matrices(a),
                                            moore.QuadricSystem(a))

        claims += _op_claims("moore", "span claims", span_symbolic,
                             context="symbolic")
    for p, a in pairs:
        tag = _pair_tag(p, a)
        elt = Fp(a, p)
        claims += _op_claims("moore", "matrix identities",
                             lambda e=elt: moore.verify_matrix_identities(e),
                             context=tag)

        def span_numeric(e=elt):
            return moore.verify_span_claims(moore.build_moore_matrices(e),
                                            moore.QuadricSystem(e))

        claims += _op_claims("moore", "span claims", span_numeric, context=tag)
    return claims


def _run_lattice(config, pairs, scans):
    claims = []
    claims += _op_claims("lattice", "halved hyperplane class",
                         nslattice.verify_halved_hyperplane_class)
    claims += _op_claims("lattice", "double point formula",
                         nslattice.verify_double_point_formula)
    claims += _op_claims("lattice", "degree fifteen surfaces",
                         nslattice.verify_degree15_surfaces)
    return claims


def _ensure_scan(scans, p, a, cache_dir):
    """Shared scan lookup; a failed scan is cached as the exception so
    every consumer reports the same failure without rescanning."""
    key = (p, a)
    if key not in scans:
        try:
            scans[key] = probe.scan_curve(p, a, cache_dir=cache_dir)
        except Exception as exc:
            scans[key] = exc
    return scans[key]


def _run_scan(config, pairs, scans):
    claims = []
    for p, a in pairs:
        tag = _pair_tag(p, a)
        scan = _ensure_scan(scans, p, a, config.cache_dir)
        if not isinstance(scan, probe.CurveScan):
            claims.append(_claim("scan", "curve scan completes", False,
                                 _error_text(scan), context=tag))
            continue
        n = len(scan.points)
        source = "cache" if scan.from_cache else "fresh scan"
        claims.append(_claim("scan", "curve scan completes", True,
                             "%d points (%s)" % (n, source), context=tag))
        # (p + 1 - n)^2 <= 4p is the integer form of the Hasse window
        claims.append(_claim(
            "scan", "point count in hasse window",
            (p + 1 - n) ** 2 <= 4 * p,
            "|%d + 1 - %d| = %d <= %d" % (p, n, abs(p + 1 - n), isqrt(4 * p)),
            context=tag))
        ranks = sorted(set(scan.jacobian_ranks))
        claims.append(_claim("scan", "jacobian rank three on the curve",
                             ranks == [3], "rank values %s at %d points"
                             % (ranks, n), context=tag))
    return claims


def _run_scan_consumer(suite, thunk_for, config, pairs, scans):
    claims = []
    seed = suite_seed(config.seed, suite)
    for p, a in pairs:
        tag = _pair_tag(p, a)
        scan = _ensure_scan(scans, p, a, config.cache_dir)
        if not isinstance(scan, probe.CurveScan):
            claims.append(_claim(suite, "curve scan available", False,
                                 _error_text(scan), context=tag))
            continue
        claims += _op_claims(suite, suite + " certification",
                             thunk_for(scan, seed), context=tag)
    return claims


def _run_secants(config, pairs, scans):
    def thunk_for(scan, seed):
        return lambda: probe.certify_secant_variety(scan, seed=seed)
    return _run_scan_consumer("secants", thunk_for, config, pairs, scans)


def _run_incidence(config, pairs, scans):
    def thunk_for(scan, seed):
        return lambda: probe.certify_incidence(scan, seed=seed)
    return _run_scan_consumer("incidence", thunk_for, config, pairs, scans)


def _run_cremona(config, pairs, scans):
    def thunk_for(scan, seed):
        return lambda: probe.interpolate_cremona_inverse(scan,
                                                         seed=seed).report
    return _run_scan_consumer("cremona", thunk_for, config, pairs, scans)


_RUNNERS = {
    "hesse": _run_hesse,
    "heisenberg": _run_heisenberg,
    "sections": _run_sections,
    "moore": _run_moore,
    "lattice": _run_lattice,
    "scan": _run_scan,
    "secants": _run_secants,
    "incidence": _run_incidence,
    "cremona": _run_cremona,
}


# -- run and report ----------------------------------------------------


def _config_echo(config: RunConfig) -> dict:
    return {
        "primes": list(config.primes),
        "a_values": ("auto" if config.a_values == "auto"
                     else list(config.a_values)),
        "seed": config.seed,
        "symbolic_a": config.symbolic_a,
        "suites": list(config.suites),
        "cache_dir": config.cache_dir,
        "report_format": config.report_format,
    }


def summarize(claims) -> dict:
    counts = {"pass": 0, "soft-pass": 0, "fail": 0, "soft-fail": 0}
    for claim in claims:
        counts[claim["status"]] += 1
    counts["total"] = len(claims)
    return counts


def run(config: RunConfig) -> dict:
    """Execute the configured suites and return the report dictionary."""
    pairs = resolve_pairs(config)
    need_pairs = any(s in _PAIR_SUITES for s in config.suites)
    if not need_pairs:
        pairs = ()
    scans: dict = {}
    claims = []
    for suite in config.suites:
        runner = _RUNNERS[suite]
        start = time.monotonic()
        try:
            suite_claims = runner(config, pairs, scans)
        except Exception as exc:
            suite_claims = [_claim(suite, "suite executes", False, _error_text(exc))]
        elapsed_ms = round((time.monotonic() - start) * 1000.0, 3)
        for claim in suite_claims:
            claim["elapsed_ms"] = elapsed_ms
        claims.extend(suite_claims)
    return {
        "version": __version__,
        "config": _config_echo(config),
        "claims": claims,
        "summary": summarize(claims),
    }


def exit_status(report: dict, strict: bool = False) -> int:
    """0 when every claim passed; soft failures count only under strict."""
    summary = report["summary"]
    if summary["fail"] > 0:
        return 1
    if strict and summary["soft-fail"] > 0:
        return 1
    return 0


_STATUS_MARK = {"pass": "PASS", "soft-pass": "SOFT PASS",
                "fail": "FAIL", "soft-fail": "SOFT FAIL"}


def render_report(report: dict, fmt: str = "json") -> str:
    """Serialize a report; json is canonical (sorted keys), markdown is
    for reading.  A fully passing markdown report contains no uppercase
    FAIL marker, so log greps stay honest."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt != "markdown":
        raise ValueError("format must be one of %s" % (REPORT_FORMATS,))
    config = report["config"]
    summary = report["summary"]
    lines = [
        "# verification report",
        "",
        "- version: %s" % report["version"],
        "- seed: %d" % config["seed"],
        "- primes: %s" % ", ".join(str(p) for p in config["primes"]),
        "- moduli: %s" % (config["a_values"] if config["a_values"] == "auto"
                          else ", ".join(str(a)
                                         for a in config["a_values"])),
        "- suites: %s" % ", ".join(config["suites"]),
        "",
        "%d claims: %d passed, %d soft passed, %d failed, %d soft failed."
        % (summary["total"], summary["pass"], summary["soft-pass"],
           summary["fail"], summary["soft-fail"]),
    ]
    current = None
    for claim in report["claims"]:
        if claim["suite"] != current:
            current = claim["suite"]
            lines += ["", "## %s" % current, ""]
        lines.append("- %s `%s` %s" % (_STATUS_MARK[claim["status"]],
                                       claim["id"], claim["statement"]))
        if claim["witness"]:
            lines.append("  - %s" % claim["witness"])
    return "\n".join(lines) + "\n"


__all__ = [
    "DEFAULT_PRIMES", "REPORT_FORMATS", "RunConfig", "SUITE_ORDER",
    "exit_status", "make_config", "render_report", "resolve_pairs", "run",
    "suite_seed", "summarize",
]
