"""Run orchestration and CLI tests.

The heavy suites (moore symbolic, hesse witness search, cremona) have
their own test modules; here the runs stick to fast suites over p = 31
so the orchestration contract itself is what gets exercised: canonical
suite ordering, claim schema, seed derivation, determinism modulo
elapsed_ms, render formats, and the two subcommands.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from pentangle import cli
from pentangle import probe
from pentangle import report as rp

ROOT = Path(__file__).resolve().parent.parent

FAST = ("heisenberg", "sections", "lattice", "scan")

CLAIM_KEYS = {"suite", "id", "statement", "status", "witness", "elapsed_ms"}

ID_PATTERN = re.compile(r"^[a-z]+:[a-z0-9-]+(@p\d+-a\d+|@symbolic)?$")


def strip_elapsed(report):
    return dict(report, claims=[{k: v for k, v in c.items()
                                 if k != "elapsed_ms"}
                                for c in report["claims"]])


@pytest.fixture(scope="module")
def fast_report():
    return rp.run(rp.make_config(primes=(31,), suites=FAST, seed=42))


# ---------------------------------------------------------------------------
# configuration


def test_default_config():
    cfg = rp.make_config()
    assert cfg.primes == (31, 61)
    assert cfg.a_values == "auto"
    assert cfg.seed == 42
    assert cfg.symbolic_a is True
    assert cfg.suites == rp.SUITE_ORDER
    assert cfg.cache_dir is None
    assert cfg.report_format == "json"


def test_suites_are_canonically_ordered():
    cfg = rp.make_config(suites=("cremona", "hesse", "scan"))
    assert cfg.suites == ("hesse", "scan", "cremona")
    assert rp.make_config(suites="all").suites == rp.SUITE_ORDER
    assert rp.make_config(suites="lattice").suites == ("lattice",)


def test_config_rejections():
    with pytest.raises(ValueError, match="unknown suites"):
        rp.make_config(suites=("lattice", "nosuch"))
    with pytest.raises(ValueError, match="at least one suite"):
        rp.make_config(suites=())
    with pytest.raises(ValueError, match="unsupported prime"):
        rp.make_config(primes=(31, 37))
    with pytest.raises(ValueError, match="at least one prime"):
        rp.make_config(primes=())
    with pytest.raises(ValueError, match="'auto' or a sequence"):
        rp.make_config(a_values="wat")
    with pytest.raises(ValueError, match="sequence is empty"):
        rp.make_config(a_values=())
    with pytest.raises(ValueError, match="report_format"):
        rp.make_config(report_format="yaml")


def test_resolve_pairs_auto():
    cfg = rp.make_config(primes=(31, 61))
    assert rp.resolve_pairs(cfg) == ((31, 1), (31, 2), (61, 1), (61, 2))


def test_resolve_pairs_explicit():
    cfg = rp.make_config(primes=(31,), a_values=(1, 4))
    assert rp.resolve_pairs(cfg) == ((31, 1), (31, 4))
    bad = rp.make_config(primes=(31,), a_values=(3,))
    with pytest.raises(ValueError, match="excluded residues"):
        rp.resolve_pairs(bad)


def test_suite_seed_streams_are_stable_and_distinct():
    assert rp.suite_seed(42, "secants") == rp.suite_seed(42, "secants")
    assert rp.suite_seed(42, "secants") != rp.suite_seed(42, "incidence")
    assert rp.suite_seed(42, "secants") != rp.suite_seed(43, "secants")
    assert 0 <= rp.suite_seed(42, "hesse") < 2 ** 64


# ---------------------------------------------------------------------------
# run output shape


def test_report_shape(fast_report):
    assert set(fast_report) == {"version", "config", "claims", "summary"}
    assert fast_report["config"]["primes"] == [31]
    assert fast_report["config"]["suites"] == list(FAST)
    assert fast_report["claims"], "no claims emitted"
    for claim in fast_report["claims"]:
        assert set(claim) == CLAIM_KEYS
        assert claim["suite"] in FAST
        assert ID_PATTERN.match(claim["id"]), claim["id"]
        assert claim["status"] in ("pass", "soft-pass", "fail", "soft-fail")
        assert isinstance(claim["elapsed_ms"], float)
        assert claim["elapsed_ms"] >= 0.0


def test_fast_suites_all_pass(fast_report):
    assert fast_report["summary"]["fail"] == 0
    assert fast_report["summary"]["soft-fail"] == 0
    assert fast_report["summary"]["total"] == \
        len(fast_report["claims"])
    assert rp.exit_status(fast_report) == 0
    assert rp.exit_status(fast_report, strict=True) == 0


def test_claims_follow_suite_order(fast_report):
    order = [c["suite"] for c in fast_report["claims"]]
    boundaries = [s for i, s in enumerate(order) if i == 0 or s != order[i - 1]]
    assert boundaries == list(FAST)


def test_heisenberg_claim_ids_frozen(fast_report):
    ids = [c["id"] for c in fast_report["claims"]
           if c["suite"] == "heisenberg"]
    assert ids == [
        "heisenberg:commutator-scalar-level-three-standard-twist",
        "heisenberg:commutator-scalar-level-three-opposite-twist",
        "heisenberg:commutator-scalar-level-fifteen-fifth-powers",
        "heisenberg:degree-three-eigenspace-dimensions",
        "heisenberg:character-listing-mismatch-flagged",
    ]
    witnesses = {c["id"]: c["witness"] for c in fast_report["claims"]
                 if c["suite"] == "heisenberg"}
    first = witnesses["heisenberg:commutator-scalar-level-three-standard-twist"]
    assert "eps3^2" in first
    assert "(2, 2)" in witnesses["heisenberg:character-listing-mismatch-flagged"]


def test_scan_claims_per_pair(fast_report):
    scan_claims = [c for c in fast_report["claims"] if c["suite"] == "scan"]
    tags = sorted({c["id"].rsplit("@", 1)[1] for c in scan_claims})
    assert tags == ["p31-a1", "p31-a2"]
    census = [c for c in scan_claims
              if c["id"].startswith("scan:curve-scan-completes")]
    assert all("25 points" in c["witness"] for c in census)


def test_determinism_modulo_elapsed():
    cfg = rp.make_config(primes=(31,), suites=("scan", "secants"), seed=7)
    first = rp.run(cfg)
    second = rp.run(cfg)
    assert strip_elapsed(first) == strip_elapsed(second)
    other = rp.run(rp.make_config(primes=(31,),
                                  suites=("scan", "secants"), seed=8))
    w7 = [c["witness"] for c in first["claims"] if c["suite"] == "secants"]
    w8 = [c["witness"] for c in other["claims"] if c["suite"] == "secants"]
    assert w7 != w8


def test_scan_cache_is_used_between_runs(tmp_path):
    cfg = rp.make_config(primes=(31,), a_values=(2,), suites=("scan",),
                         cache_dir=str(tmp_path))
    first = rp.run(cfg)
    again = rp.run(cfg)
    assert "fresh scan" in first["claims"][0]["witness"]
    assert "cache" in again["claims"][0]["witness"]
    assert strip_elapsed(first)["summary"] == strip_elapsed(again)["summary"]


def test_op_exception_becomes_failing_claim(monkeypatch):
    from pentangle import nslattice

    def boom():
        raise RuntimeError("table corrupted")

    monkeypatch.setattr(nslattice, "verify_halved_hyperplane_class", boom)
    report = rp.run(rp.make_config(primes=(31,), suites=("lattice",)))
    failing = [c for c in report["claims"] if c["status"] == "fail"]
    assert len(failing) == 1
    assert failing[0]["id"] == "lattice:halved-hyperplane-class-completes"
    assert "RuntimeError: table corrupted" in failing[0]["witness"]
    # the other two lattice ops still report
    assert report["summary"]["pass"] > 0
    assert rp.exit_status(report) == 1


def test_suite_crash_becomes_failing_claim(monkeypatch):
    def boom(config, pairs, scans):
        raise RuntimeError("runner exploded")

    monkeypatch.setitem(rp._RUNNERS, "lattice", boom)
    report = rp.run(rp.make_config(primes=(31,), suites=("lattice",)))
    assert [c["id"] for c in report["claims"]] == ["lattice:suite-executes"]
    assert report["claims"][0]["status"] == "fail"
    assert "runner exploded" in report["claims"][0]["witness"]


def test_failed_scan_reported_once_per_consumer(monkeypatch):
    def refuse(p, a, cache_dir=None):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(probe, "scan_curve", refuse)
    report = rp.run(rp.make_config(primes=(31,), a_values=(2,),
                                   suites=("scan", "secants")))
    ids = [c["id"] for c in report["claims"]]
    assert ids == ["scan:curve-scan-completes@p31-a2",
                   "secants:curve-scan-available@p31-a2"]
    assert all(c["status"] == "fail" for c in report["claims"])
    assert all("disk on fire" in c["witness"] for c in report["claims"])


def test_summarize_and_exit_status():
    claims = [{"status": "pass"}, {"status": "soft-pass"},
              {"status": "soft-fail"}]
    counts = rp.summarize(claims)
    assert counts == {"pass": 1, "soft-pass": 1, "fail": 0,
                      "soft-fail": 1, "total": 3}
    soft_only = {"summary": counts}
    assert rp.exit_status(soft_only) == 0
    assert rp.exit_status(soft_only, strict=True) == 1
    hard = {"summary": rp.summarize([{"status": "fail"}])}
    assert rp.exit_status(hard) == 1
    assert rp.exit_status(hard, strict=True) == 1


# ---------------------------------------------------------------------------
# rendering


def test_json_rendering_roundtrips(fast_report):
    text = rp.render_report(fast_report, "json")
    assert text.endswith("\n")
    assert json.loads(text) == fast_report
    # canonical ordering: sorted keys put claims before config
    assert text.index('"claims"') < text.index('"config"')


def test_markdown_of_passing_run_has_no_fail_marker(fast_report):
    md = rp.render_report(fast_report, "markdown")
    assert "FAIL" not in md
    assert md.startswith("# verification report\n")
    for suite in FAST:
        assert "## %s" % suite in md
    assert "0 failed, 0 soft failed." in md
    assert "- PASS `heisenberg:" in md


def test_markdown_marks_failures():
    claims = [
        {"suite": "demo", "id": "demo:a", "statement": "a", "status": "fail",
         "witness": "broke", "elapsed_ms": 0.0},
        {"suite": "demo", "id": "demo:b", "statement": "b",
         "status": "soft-fail", "witness": "outside envelope",
         "elapsed_ms": 0.0},
    ]
    report = {"version": "0.1.0",
              "config": {"seed": 0, "primes": [31], "a_values": "auto",
                         "suites": ["demo"]},
              "claims": claims, "summary": rp.summarize(claims)}
    md = rp.render_report(report, "markdown")
    assert "- FAIL `demo:a`" in md
    assert "- SOFT FAIL `demo:b`" in md
    assert "outside envelope" in md


def test_render_rejects_unknown_format(fast_report):
    with pytest.raises(ValueError, match="format"):
        rp.render_report(fast_report, "yaml")


# ---------------------------------------------------------------------------
# command line


@pytest.fixture()
def runner():
    return CliRunner()


def test_cli_run_stdout_json(runner):
    result = runner.invoke(cli.main, ["run", "--suites", "lattice",
                                      "--prime", "31"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["summary"]["fail"] == 0
    assert report["config"]["suites"] == ["lattice"]


def test_cli_run_markdown(runner):
    result = runner.invoke(cli.main, ["run", "--suites", "heisenberg",
                                      "--format", "markdown"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("# verification report")
    assert "FAIL" not in result.output


def test_cli_run_report_file_then_rerender(runner, tmp_path):
    out = tmp_path / "out.json"
    result = runner.invoke(cli.main, ["run", "--suites", "lattice",
                                      "--report", str(out)])
    assert result.exit_code == 0, result.output
    assert "report written to" in result.output
    saved = json.loads(out.read_text())
    assert saved["summary"]["fail"] == 0

    rerender = runner.invoke(cli.main, ["report", "--format", "markdown",
                                        str(out)])
    assert rerender.exit_code == 0, rerender.output
    assert rerender.output.startswith("# verification report")


def test_cli_run_at_largest_prime(runner):
    result = runner.invoke(cli.main, ["run", "--prime", "241",
                                      "--suites", "scan,secants,cremona"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["config"]["primes"] == [241]
    assert report["summary"]["total"] > 0
    assert all(claim["status"] != "fail" for claim in report["claims"])


def _scan_source(output: str) -> str:
    """The point source that a run's scan witness names."""
    report = json.loads(output)
    witness = next(c["witness"] for c in report["claims"]
                   if c["id"].startswith("scan:curve-scan-completes@"))
    return re.fullmatch(r"25 points \((.*)\)", witness).group(1)


def test_cli_scan_fresh_then_cached(runner, tmp_path):
    args = ["run", "--suites", "scan", "--prime", "31", "--a", "2",
            "--cache-dir", str(tmp_path)]
    first = runner.invoke(cli.main, args)
    assert first.exit_code == 0, first.output
    assert _scan_source(first.output) == "fresh scan"
    second = runner.invoke(cli.main, args)
    assert second.exit_code == 0, second.output
    assert _scan_source(second.output) == "cache"
    assert (tmp_path / "curve-p31-a2.txt").exists()
    # the cache is filled by run; there is no separate scan command
    gone = runner.invoke(cli.main, ["scan", "--prime", "31", "--a", "2"])
    assert gone.exit_code == 2
    assert "No such command" in gone.output


def test_cli_cache_dir_env_var(runner, tmp_path):
    args = ["run", "--suites", "scan", "--prime", "31", "--a", "1"]
    env = {"PENTANGLE_CACHE_DIR": str(tmp_path)}
    first = runner.invoke(cli.main, args, env=env)
    assert first.exit_code == 0, first.output
    assert _scan_source(first.output) == "fresh scan"
    assert (tmp_path / "curve-p31-a1.txt").exists()
    second = runner.invoke(cli.main, args, env=env)
    assert _scan_source(second.output) == "cache"


def test_cli_run_explicit_moduli(runner):
    result = runner.invoke(cli.main, ["run", "--suites", "scan",
                                      "--prime", "31", "--a", "2",
                                      "--a", "4"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    tags = sorted({c["id"].rsplit("@", 1)[1] for c in report["claims"]})
    assert tags == ["p31-a2", "p31-a4"]


def test_cli_usage_errors(runner, tmp_path):
    bad_suite = runner.invoke(cli.main, ["run", "--suites", "nosuch"])
    assert bad_suite.exit_code == 2
    assert "unknown suites" in bad_suite.output

    mixed = runner.invoke(cli.main, ["run", "--a", "auto", "--a", "2"])
    assert mixed.exit_code == 2
    assert "cannot be mixed" in mixed.output

    not_int = runner.invoke(cli.main, ["run", "--a", "wat"])
    assert not_int.exit_code == 2

    excluded = runner.invoke(cli.main, ["run", "--suites", "scan", "--prime", "31",
                                        "--a", "3", "--cache-dir", str(tmp_path)])
    assert excluded.exit_code == 2
    assert "excluded residues" in excluded.output

    plain = tmp_path / "notes.txt"
    plain.write_text("not a report")
    not_json = runner.invoke(cli.main, ["report", str(plain)])
    assert not_json.exit_code == 2
    assert "not a JSON report" in not_json.output

    shallow = tmp_path / "shallow.json"
    shallow.write_text('{"claims": []}')
    missing = runner.invoke(cli.main, ["report", str(shallow)])
    assert missing.exit_code == 2
    assert "lacks report keys" in missing.output

    scalar = tmp_path / "scalar.json"
    scalar.write_text("5")
    not_object = runner.invoke(cli.main, ["report", str(scalar)])
    assert not_object.exit_code == 2, not_object.output
    assert "not a JSON report" in not_object.output

    whole = {"version": 1, "summary": {"total": 1, "pass": 1, "soft-pass": 0,
                                       "fail": 0, "soft-fail": 0},
             "config": {"seed": 42, "primes": [31], "a_values": "auto",
                        "suites": ["scan"]},
             "claims": [{"suite": "scan", "id": "scan:x", "statement": "x",
                         "status": "pass", "witness": ""}]}
    unseeded = json.loads(json.dumps(whole))
    del unseeded["config"]["seed"]
    unstatused = json.loads(json.dumps(whole))
    del unstatused["claims"][0]["status"]
    empty_claim = dict(whole, claims=[{}])
    hollow = {"version": 1, "config": {}, "claims": [{}], "summary": {}}
    bodies = (("whole", whole), ("unseeded", unseeded),
              ("unstatused", unstatused), ("empty_claim", empty_claim),
              ("hollow", hollow))
    for name, body in bodies:
        target = tmp_path / ("%s.json" % name)
        target.write_text(json.dumps(body))
        # the default format is markdown; json must reject the same bodies
        for extra in ([], ["--format", "json"]):
            result = runner.invoke(cli.main, ["report"] + extra + [str(target)])
            assert result.exit_code == (0 if name == "whole" else 2), (name, extra)
            assert "Traceback" not in result.output
            assert (name == "whole") != ("malformed report" in result.output)
    echoed = runner.invoke(cli.main, ["report", "--format", "json",
                                      str(tmp_path / "whole.json")])
    assert json.loads(echoed.output) == whole


def test_cli_strict_promotes_soft_failures(runner, monkeypatch):
    def soft_failure(config, pairs, scans):
        return [rp._claim("lattice", "envelope check", False,
                          "outside the statistical envelope", soft=True)]

    monkeypatch.setitem(rp._RUNNERS, "lattice", soft_failure)
    lax = runner.invoke(cli.main, ["run", "--suites", "lattice"])
    assert lax.exit_code == 0, lax.output
    strict = runner.invoke(cli.main, ["run", "--suites", "lattice",
                                      "--strict"])
    assert strict.exit_code == 1, strict.output


@pytest.mark.parametrize("suites", [rp.SUITE_ORDER[:5], rp.SUITE_ORDER[5:]],
                         ids=["identities", "curves"])
def test_runs_never_import_numpy_ma(suites):
    # np.unique of a plain array and np.isin check for masked arrays, which
    # imports numpy.ma, 11-32 ms in a fresh process, on first use
    script = (
        "import sys\n"
        "from pentangle import report\n"
        f"result = report.run(report.make_config(suites={list(suites)!r}))\n"
        "assert result['summary']['fail'] == 0, result['summary']\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_moore_builds_each_bundle_once(monkeypatch):
    from pentangle import moore

    built = []
    real = moore.build_moore_matrices

    def counting(a):
        built.append(a)
        return real(a)

    monkeypatch.setattr(moore, "build_moore_matrices", counting)
    report = rp.run(rp.make_config(suites=("moore",)))
    # the symbolic modulus and two per prime at 31 and 61
    assert len(built) == 5
    assert report["summary"]["fail"] == report["summary"]["soft-fail"] == 0


def test_failed_moore_bundle_fails_both_ops(monkeypatch):
    from pentangle import moore

    def refuse(a):
        raise RuntimeError("no bundle")

    monkeypatch.setattr(moore, "build_moore_matrices", refuse)
    config = rp.make_config(suites=("moore",))
    report = rp.run(config)
    tags = ["symbolic"] + ["p%d-a%d" % pair for pair in rp.resolve_pairs(config)]
    assert [c["id"] for c in report["claims"]] == [
        "moore:%s-completes@%s" % (op, tag)
        for tag in tags for op in ("matrix-identities", "span-claims")]
    assert all(c["status"] == "fail" and c["witness"] == "RuntimeError: no bundle"
               for c in report["claims"])
