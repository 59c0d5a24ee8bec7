"""End-to-end acceptance gates.

Ten tests, one per certification target, each asserting both the
mathematical outcome and (where stated) the wall-clock budget, and a
frozen hash of the claims of the exact-arithmetic suites.  These
run the public entry points exactly as a release check would; the finer
grained behavior of each module lives in its own test file.
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from pentangle import heisenberg, hessepencil, moore, probe
from pentangle import nslattice as ns
from pentangle import report as rp
from pentangle import sections
from pentangle.scalars import EPS3, Fp

PAIRS = ((31, 1), (31, 2), (61, 1), (61, 2))

# SHA-256 of the JSON list of (id, status, witness) of the claims in
# test_10's run; a change to any claim, id or witness text changes it
RUN_10_SHA256 = "e1cee102d716e8cac631e5f457c8842d28dbe3454d9d0ea721a0db1b450fa3c5"

# the same hash for the five exact-arithmetic suites (perfbench's
# `identities` workload) at the default primes; their claims do not
# depend on the run seed, so every seed gives this one
IDENTITIES_SHA256 = "34f7af547e7e5b120a0eb9a8d944cb21a65c9a695e1d595c51073ddba1aba056"
IDENTITY_SUITES = ("hesse", "heisenberg", "sections", "moore", "lattice")

# the same hash for the moore claims at --prime 241, the largest supported
# prime, where the span claims run over F_241 as well as Q(eps15)(a)
MOORE_241_SHA256 = "928858f251e888e9bf77baf88c22599a30ee001a58640aec4fad47212faee16c"

# the same hash for the four curve suites (perfbench's `curve-scan`
# workload), which draw from the run seed: at the default primes per seed,
# and for seed 42 at --prime 241, the largest supported prime, and at the
# other three supported primes
CURVE_SHA256 = {
    (42, (31, 61)): "1c237ee1ff78787315166971276ea29cbe1ff2aa7e1a1ac5b2260bd28c081f91",
    (7, (31, 61)): "bd54d1100371b30fe71a9c5313d891612fe244dcf212e73fe4f659cc503ce2cf",
    (42, (241,)): "734846f7200f18c2c91eac2b7bf4b79dc01ef749628b9a5aa6c7eedd7c183763",
    (42, (151, 181, 211)): "13b18497083bee9e3d75baeb8378ecc52a559e71d948e822906329df8f17f104",
}
CURVE_SUITES = ("scan", "secants", "incidence", "cremona")


@pytest.fixture(scope="module")
def timed_scans():
    """Fresh (uncached) curve scans for two admissible moduli per prime,
    with their wall times."""
    out = {}
    for p, a in PAIRS:
        start = time.monotonic()
        scan = probe.scan_curve(p, a)
        out[(p, a)] = (scan, time.monotonic() - start)
    return out


def _names(report):
    return {c["name"]: c for c in report["checks"]}


def test_01_sum_of_cubes_identities_exact_and_fast():
    start = time.monotonic()
    report = hessepencil.verify_fermat_identities()
    elapsed = time.monotonic() - start
    assert report["passed"]
    names = _names(report)
    for key in ("(1, 0)", "(0, 2)", "(1, 2)", "(2, 2)"):
        check = names["sum of cubes for character %s" % key]
        assert check["passed"]
    assert elapsed < 1.0, "took %.3fs" % elapsed


def test_02_degree_three_eigenspaces_and_flagged_listing():
    blocks = heisenberg.character_decomposition(3, 3)
    dims = {label: len(basis) for label, basis in blocks.items()}
    assert dims[(0, 0)] == 2
    assert sum(dims.values()) == 10
    assert all(v == 1 for k, v in dims.items() if k != (0, 0))
    table = heisenberg.validate_character_table()
    assert table["passed"]
    assert [m["label"] for m in table["mismatches"]] == [(2, 2)]
    flagged = table["mismatches"][0]
    assert flagged["recorded"] != flagged["computed"]
    assert flagged["recorded"] and flagged["computed"]


def test_03_commutator_scalars_exact():
    assert heisenberg.commutator_scalar(3, twist=1) == EPS3.inverse()
    assert heisenberg.commutator_scalar(3, twist=-1) == EPS3
    assert heisenberg.commutator_scalar(15, sigma_power=5,
                                        tau_power=5) == EPS3


def test_04_quintic_section_symmetries_formal():
    report = sections.verify_section_symmetries()
    assert report["passed"]
    names = list(_names(report))
    assert len(names) == 27
    assert sum("pair invariance" in n for n in names) == 10
    assert sum("shift sends" in n for n in names) == 5
    assert sum("character scales" in n for n in names) == 5
    assert sum("involution sends" in n for n in names) == 5


def test_05_matrix_identities_symbolic_within_budget():
    start = time.monotonic()
    identities = moore.verify_matrix_identities(None)
    a = moore.symbolic_modulus()
    span = moore.verify_span_claims(moore.build_moore_matrices(a))
    elapsed = time.monotonic() - start
    assert identities["passed"]
    names = _names(identities)
    for required in ("structure matrix is symmetric",
                     "syzygy matrix is antisymmetric",
                     "unit directions recover the doubled quadrics",
                     "dual matrix equals the gradient matrix in 3j"
                     " column order",
                     "both determinants are homogeneous of degree five",
                     "cyclic index shift fixes both determinants",
                     "diagonal character twist fixes both determinants"):
        assert names[required]["passed"], required
    assert span["passed"]
    assert _names(span)["all 25 pairing entries lie in the quadric span"][
        "passed"]
    assert elapsed < 30.0, "took %.3fs" % elapsed


def test_06_prime_field_scans_and_secant_certificates(timed_scans):
    for (p, a), (scan, elapsed) in timed_scans.items():
        budget = 10.0 if p == 31 else 60.0
        assert elapsed < budget, "scan (%d, %d) took %.3fs" % (p, a, elapsed)
        n = len(scan.points)
        assert (p + 1 - n) ** 2 <= 4 * p, "point count outside Hasse window"
        assert set(scan.jacobian_ranks) == {3}
        report = probe.certify_secant_variety(scan)
        assert report["passed"], (p, a)
        details = [c["detail"] for c in report["checks"] if c["passed"]]
        assert any("1000/1000" in d for d in details), (p, a)
        assert any("500/500" in d for d in details), (p, a)


def test_07_cremona_inverse_certificate(timed_scans):
    scan, _ = timed_scans[(31, 1)]
    witness = probe.interpolate_cremona_inverse(scan)
    assert witness.report["passed"]
    assert witness.solution_dimension == 1
    assert len(witness.cubics) == 5
    assert witness.factor.any(), "common factor is the zero polynomial"
    details = [c["detail"] for c in witness.report["checks"]]
    assert any("500/500" in d for d in details)
    assert any("200/200" in d for d in details)
    assert any("skipped" in d for d in details), "base-locus skips unlogged"


def test_08_collinearity_reduction_on_witness_curve():
    report = hessepencil.verify_six_secant_criterion()
    assert report["passed"]
    assert report["witness"]["p"] == 1801
    assert report["witness"]["lam"] == 17
    names = _names(report)
    assert names["witness torsion counts (2,3,5) = (4,9,25)"]["passed"]
    assert names["sum(p_i) + 2*e0 = 5*e0 on all 25 x 8 torsion choices"][
        "passed"]
    assert names["the equation 5*e0 = 0 has exactly 25 solutions"]["passed"]


def test_09_intersection_ledger_numbers():
    start = time.monotonic()
    for report in (ns.verify_halved_hyperplane_class(),
                   ns.verify_double_point_formula(),
                   ns.verify_degree15_surfaces()):
        assert report["passed"]
    chordal = ns.chordal_classes()
    h = chordal["hyperplane"]
    assert ns.intersection(h, h, h) == 5
    assert ns.intersection(chordal["ruled_surface"], h, h) == 15
    assert ns.intersection(chordal["adjoint_surface"], h, h) == 15
    residual = (5 * h + chordal["canonical"] - chordal["adjoint_surface"]
                - chordal["pencil"])
    assert residual.is_zero()
    blowup = ns.blowup_classes()
    wall = 2 * blowup["hyperplane"] - blowup["exceptional"]
    assert ns.intersection(wall, wall, wall) == 5
    assert (5 - 5) // 9 == 0
    scroll = ns.scroll_classes()
    assert ns.intersection(scroll["diagonal_curve"], scroll["hyperplane"]) == 10
    double_point = _names(ns.verify_double_point_formula())
    check = double_point["double point formula forces degree fifteen"]
    assert "[15]" in check["detail"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, "took %.3fs" % elapsed


def test_10_runs_are_reproducible():
    config = rp.make_config(primes=(31,), seed=20260824,
                            suites=("heisenberg", "lattice", "scan",
                                    "secants", "cremona"))
    first = rp.run(config)
    second = rp.run(config)
    key = [(c["id"], c["status"], c["witness"]) for c in first["claims"]]
    assert key == [(c["id"], c["status"], c["witness"])
                   for c in second["claims"]]
    digest = hashlib.sha256(json.dumps(key).encode("utf-8")).hexdigest()
    assert digest == RUN_10_SHA256, "claims changed: new SHA-256 %s" % digest
    assert first["summary"] == second["summary"]
    assert first["summary"]["fail"] == 0


@pytest.mark.parametrize("seed", (42, 7))
def test_identities_claims_are_frozen(seed):
    result = rp.run(rp.make_config(seed=seed, suites=IDENTITY_SUITES))
    key = [(c["id"], c["status"], c["witness"]) for c in result["claims"]]
    assert len(key) == 175
    digest = hashlib.sha256(json.dumps(key).encode("utf-8")).hexdigest()
    assert digest == IDENTITIES_SHA256, "claims changed: new SHA-256 %s" % digest


def test_moore_claims_at_the_largest_prime_are_frozen():
    result = rp.run(rp.make_config(primes=(241,), suites=("moore",)))
    key = [(c["id"], c["status"], c["witness"]) for c in result["claims"]]
    assert len(key) == 49
    digest = hashlib.sha256(json.dumps(key).encode("utf-8")).hexdigest()
    assert digest == MOORE_241_SHA256, "claims changed: new SHA-256 %s" % digest


@pytest.mark.parametrize("seed, primes, claims", [(42, (31, 61), 88), (7, (31, 61), 88),
                                                  (42, (241,), 42), (42, (151, 181, 211), 126)])
def test_curve_claims_are_frozen(seed, primes, claims):
    result = rp.run(rp.make_config(seed=seed, primes=primes, suites=CURVE_SUITES))
    key = [(c["id"], c["status"], c["witness"]) for c in result["claims"]]
    assert len(key) == claims
    digest = hashlib.sha256(json.dumps(key).encode("utf-8")).hexdigest()
    assert digest == CURVE_SHA256[seed, primes], "claims changed: new SHA-256 %s" % digest


@pytest.mark.parametrize("seed, tag", [(95, "p31-a1"), (289, "p31-a2")])
def test_line_inside_the_quintic_passes_the_line_count(seed, tag):
    # at these seeds one line drawn at p=31 lies in the quintic, with all
    # 32 of its points singular; every other line meets it at most 5 times
    result = rp.run(rp.make_config(seed=seed, suites=("incidence",)))
    assert result["summary"]["fail"] == 0
    prefix = "incidence:line-sections-vanish-at-no-more-than-quintic-many-points@"
    counts = {c["id"][len(prefix):]: c for c in result["claims"] if c["id"].startswith(prefix)}
    assert counts[tag]["status"] == "pass"
    assert "max 32" in counts[tag]["witness"]
    assert counts[tag]["witness"].endswith("; 1 line lies in the hypersurface")
    others = [c["witness"] for key, c in counts.items() if key != tag]
    assert len(others) == 3 and not any("hypersurface" in w for w in others)
