"""Smoke test of the narrative demos: each runs to completion.

Six demos read the check records of the verifiers directly, so a change
to that record shape shows up here.  Only the fast demos run: demo 05
(the symbolic determinantal matrices, about 18 s) and demo 10 (the
torsion witness search, about 7 s) are left out to keep tier-1 short;
their verifiers are covered by tests/test_moore.py and
tests/test_hessepencil.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

FAST_DEMOS = (
    "01_cyclotomic_scalars.py",
    "02_hesse_pencil.py",
    "03_heisenberg_characters.py",
    "04_invariant_sections.py",
    "06_prime_field_scan.py",
    "07_cremona_inverse.py",
    "08_intersection_ledger.py",
    "09_verification_report.py",
)


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
