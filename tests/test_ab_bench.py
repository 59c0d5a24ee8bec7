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
    # per-pair ratios 2/3, 1, 25/29 and 22/31, whose median is not the
    # ratio of the medians
    assert run_s["ratio"] == pytest.approx({"median": (22 / 31 + 25 / 29) / 2,
                                            "q1": (22 / 31 * 3 + 2 / 3) / 4,
                                            "q3": (25 / 29 * 3 + 1) / 4})
    ratio = by_name["claim_pass_ratio"]
    assert ratio["wins"] == 0
    assert ratio["after"]["q1"] == pytest.approx(0.875)
    assert ratio["ratio"]["median"] == pytest.approx(1.0)


def test_paired_ratio_cancels_load_shared_by_a_pair():
    # host load doubles both runs of the last two pairs: the sides' spreads
    # grow, while every pair's ratio stays 0.8
    before = [{"run_s": v} for v in (0.25, 0.25, 0.50, 0.50)]
    after = [{"run_s": v} for v in (0.20, 0.20, 0.40, 0.40)]
    row = ab_bench.summarize(before, after, {"run_s": "lower"})[0]
    assert row["before"]["q3"] - row["before"]["q1"] == pytest.approx(0.25)
    assert row["ratio"] == pytest.approx({"median": 0.8, "q1": 0.8, "q3": 0.8})
    assert "after/before 0.8 [0.8, 0.8]" in ab_bench.render([row])[0]


def test_ratio_skips_pairs_with_a_zero_before_value():
    rows = ab_bench.summarize([{"m": 0.0}, {"m": 2.0}], [{"m": 1.0}, {"m": 3.0}],
                              {"m": "lower"})
    assert rows[0]["ratio"] == {"median": 1.5, "q1": 1.5, "q3": 1.5}
    rows = ab_bench.summarize([{"m": 0.0}], [{"m": 1.0}], {"m": "lower"})
    assert rows[0]["ratio"] is None
    assert ab_bench.render(rows)[0].endswith("after/before n/a")


def test_summary_of_one_pair():
    rows = ab_bench.summarize([{"run_s": 2.0}], [{"run_s": 1.0}], {"run_s": "lower"})
    assert rows[0]["before"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert rows[0]["wins"] == 1
    assert "after wins 1/1" in ab_bench.render(rows)[0]


def test_directions_are_the_declared_end_to_end_metrics():
    assert ab_bench.better_directions() == {"run_s": "lower", "setup_s": "lower",
                                            "peak_rss_mb": "lower",
                                            "claim_pass_ratio": "higher"}


def test_pairs_rotate_through_three_path_lengths():
    # perfbench's peak_rss_mb moves with the checkout path's length: both
    # sides of a pair share one length, and the pairs use three
    rotation = ab_bench.pair_targets(Path("work"))
    lengths = [{side: len(str(path)) for side, path in targets.items()}
               for targets in rotation]
    assert all(sizes["before"] == sizes["after"] for sizes in lengths)
    assert len({sizes["before"] for sizes in lengths}) == 3
    assert len({path for targets in rotation for path in targets.values()}) == 6
