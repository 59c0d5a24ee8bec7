"""The shared check record and how report turns checks into claims."""

from __future__ import annotations

from pentangle import heisenberg
from pentangle import report as rp
from pentangle.checks import Checks


def test_soft_checks_stay_out_of_passed():
    checks = Checks()
    checks.add("exact count", True)
    checks.add("density envelope", False, "3 zeros, expected 30", soft=True)
    assert checks.passed is True
    assert checks.soft_passed is False
    checks.add("exact identity", False)
    assert checks.passed is False


def test_soft_passed_holds_without_soft_checks():
    checks = Checks()
    checks.add("exact count", False)
    assert checks.soft_passed is True
    assert checks.passed is False


def test_record_shape():
    checks = Checks()
    checks.add("hard", True, "detail text")
    checks.add("soft", True, soft=True)
    hard, soft = checks.records
    assert hard == {"name": "hard", "passed": True, "detail": "detail text"}
    assert "soft" not in hard
    assert soft == {"name": "soft", "passed": True, "detail": "", "soft": True}


def test_ok_is_coerced_to_bool():
    checks = Checks()
    checks.add("nonempty list", [3])
    checks.add("zero", 0)
    checks.add("none", None)
    assert [r["passed"] for r in checks.records] == [True, False, False]
    assert all(type(r["passed"]) is bool for r in checks.records)


def test_raising_commutator_case_fails_only_its_claim(monkeypatch):
    real = heisenberg.commutator_scalar

    def flaky(level, twist=1, sigma_power=1, tau_power=1):
        if level == 15:
            raise RuntimeError("lost the central scalar")
        return real(level, twist, sigma_power, tau_power)

    monkeypatch.setattr(heisenberg, "commutator_scalar", flaky)
    report = rp.run(rp.make_config(primes=(31,), suites=("heisenberg",)))
    failing = [c for c in report["claims"] if c["status"] == "fail"]
    assert len(failing) == 1
    assert failing[0]["id"] == "heisenberg:commutator-scalar-level-fifteen-fifth-powers"
    assert failing[0]["witness"] == "RuntimeError: lost the central scalar"
    assert report["summary"] == {"pass": 4, "soft-pass": 0, "fail": 1,
                                 "soft-fail": 0, "total": 5}


def test_raising_character_table_fails_only_its_claim(monkeypatch):
    def broken():
        raise AssertionError("nontrivial character (2, 2) is not 1-dimensional")

    monkeypatch.setattr(heisenberg, "validate_character_table", broken)
    report = rp.run(rp.make_config(primes=(31,), suites=("heisenberg",)))
    assert [c["status"] for c in report["claims"]] == ["pass"] * 3 + ["fail"]
    assert report["claims"][-1]["id"] == "heisenberg:character-table-validates"
    assert report["claims"][-1]["witness"].startswith("AssertionError: nontrivial")
