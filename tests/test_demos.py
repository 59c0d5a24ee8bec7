"""Smoke test of the narrative demos: each runs to completion.

Six demos read the check records of the verifiers directly, so a change
to that record shape shows up here.  All ten run; the slowest two, demo
05 (the symbolic determinantal matrices) and demo 10 (the torsion
witness search), take about a second each.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = sorted(path.name for path in (ROOT / "demos").glob("[0-9]*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                            capture_output=True, text=True, env=env,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
