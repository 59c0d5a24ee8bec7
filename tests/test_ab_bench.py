"""The summary of tools/ab_bench.py; the runs themselves stay out of the
test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)


def test_summary_counts_wins_by_direction():
    before = [{"run_s": v, "claim_pass_ratio": 1.0, "correct": True}
              for v in (0.30, 0.28, 0.29, 0.31)]
    after = [{"run_s": v, "claim_pass_ratio": r}
             for v, r in ((0.20, 1.0), (0.28, 0.5), (0.25, 1.0), (0.22, 1.0))]
    rows = ab_bench.summarize(before, after, {"run_s": "lower", "claim_pass_ratio": "higher",
                                              "setup_s": "lower"})
    by_name = {row["metric"]: row for row in rows}
    # setup_s is missing from the runs, so it has no row
    assert sorted(by_name) == ["claim_pass_ratio", "run_s"]
    run_s = by_name["run_s"]
    # the tie in the second pair counts for neither side
    assert (run_s["wins"], run_s["pairs"]) == (3, 4)
    assert run_s["before"] == pytest.approx({"median": 0.295, "q1": 0.2875, "q3": 0.3025})
    assert run_s["after"]["median"] == pytest.approx(0.235)
    ratio = by_name["claim_pass_ratio"]
    assert ratio["wins"] == 0
    assert ratio["after"]["q1"] == pytest.approx(0.875)


def test_summary_of_one_pair():
    rows = ab_bench.summarize([{"run_s": 2.0}], [{"run_s": 1.0}], {"run_s": "lower"})
    assert rows[0]["before"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert rows[0]["wins"] == 1
    assert "after wins 1/1" in ab_bench.render(rows)[0]


def test_directions_are_the_declared_end_to_end_metrics():
    assert ab_bench.better_directions() == {"run_s": "lower", "setup_s": "lower",
                                            "peak_rss_mb": "lower",
                                            "claim_pass_ratio": "higher"}
