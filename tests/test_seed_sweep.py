"""The claims digest gate of tools/seed_sweep.py, on a two-seed sweep of
the lattice suite."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
WRONG = "0" * 64


def _sweep(expected: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--suites", "lattice", "--seeds", "0-1",
                           "--expect-sha256", expected],
                          capture_output=True, text=True, timeout=300)


def test_expected_digest_sets_the_exit_status():
    wrong = _sweep(WRONG)
    assert wrong.returncode == 1, wrong.stderr
    digest = re.search(r"^claims sha256 ([0-9a-f]{64})$", wrong.stdout, re.M).group(1)
    assert digest != WRONG
    assert f"expected sha256 {WRONG}" in wrong.stdout
    right = _sweep(digest.upper())
    assert right.returncode == 0, right.stdout + right.stderr
    assert f"claims sha256 {digest}" in right.stdout
    assert "expected sha256" not in right.stdout
