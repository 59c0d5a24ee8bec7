#!/usr/bin/env python3
"""Alternated before/after perfbench runs of two versions of the package.

Usage:
  python3 tools/ab_bench.py BEFORE AFTER [--workload curve-scan]
      [--seconds 10] [--pairs 10] [--seed 42]

BEFORE and AFTER are each a git revision of this repository (read with
`git archive`) or a directory that holds a `src/` tree.  Each side's
`src/` is copied, next to a copy of this checkout's `perfbench/`, into
three temporary directories of its own, whose paths have three lengths.
perfbench's `peak_rss_mb` moves with the length of the checkout path, so
both sides of a pair run from paths of one length, and the pairs rotate
through the three, so that no single length decides the win count.  The
tool then runs `perfbench/run.py --workload W --seconds S --trace 0` of
both sides in N pairs, one process at a time, alternating which side
runs first.  It prints every run's metrics and, for each end-to-end
metric, each side's median and quartiles, how many pairs the AFTER side
won (ties count for neither), and the median and quartiles of the
per-pair AFTER/BEFORE ratio.  The temporary directories are removed at
the end.

Standard library only; the package is imported by perfbench's children.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def better_directions() -> dict:
    """{metric: "lower" or "higher"} of the declared end-to-end metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in declared["end_to_end"]}


def quartiles(values: list) -> dict:
    """Median and quartiles (inclusive method, as numpy's default
    percentiles) of one or more values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(before: list, after: list, better: dict) -> list:
    """One row per metric of ``better`` that every run reports.

    ``before`` and ``after`` hold one {metric: value} dict per run, pair by
    pair.  A row gives each side's median and quartiles, the pairs the
    after side won, ties counting for neither side, and the median and
    quartiles of the per-pair after/before ratio, over the pairs whose
    before value is nonzero (None if there are none).  Load on the host
    moves both runs of a pair together, and the ratio cancels it.
    """
    rows = []
    for name, direction in better.items():
        if not all(name in run for run in before + after):
            continue
        sign = 1 if direction == "lower" else -1
        wins = sum(1 for old, new in zip(before, after)
                   if sign * (new[name] - old[name]) < 0)
        ratios = [new[name] / old[name] for old, new in zip(before, after) if old[name]]
        rows.append({"metric": name, "better": direction, "pairs": len(after),
                     "wins": wins, "before": quartiles([run[name] for run in before]),
                     "after": quartiles([run[name] for run in after]),
                     "ratio": quartiles(ratios) if ratios else None})
    return rows


def render(rows: list) -> list:
    lines = []
    for row in rows:
        b, a, r = row["before"], row["after"], row["ratio"]
        lines.append("%-18s before %.4g [%.4g, %.4g]  after %.4g [%.4g, %.4g]  "
                     "after wins %d/%d (%s is better)  after/before %s"
                     % (row["metric"], b["median"], b["q1"], b["q3"], a["median"],
                        a["q1"], a["q3"], row["wins"], row["pairs"], row["better"],
                        "n/a" if r is None
                        else "%.4g [%.4g, %.4g]" % (r["median"], r["q1"], r["q3"])))
    return lines


# the lengths, in characters, that pad the checkout directories' names
PATH_PADS = (0, 24, 72)


def pair_targets(work: Path) -> list:
    """One {side: checkout directory} per path length; the two sides'
    paths have the same length, pair i runs from entry i % 3."""
    return [{"before": work / ("a" + "-" * pad), "after": work / ("b" + "-" * pad)}
            for pad in PATH_PADS]


def place(side: str, target: Path) -> None:
    """Put the side's src/ and this checkout's perfbench/ under target."""
    target.mkdir()
    if Path(side).is_dir():
        shutil.copytree(Path(side) / "src", target / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    else:
        archive = subprocess.run(["git", "archive", "--format=tar", side, "src"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(target)
    shutil.copytree(ROOT / "perfbench", target / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))


def bench(target: Path, args) -> dict:
    """The metrics of one perfbench run, {name: value}, and its gate."""
    out = subprocess.run(
        [sys.executable, str(target / "perfbench" / "run.py"), "--workload", args.workload,
         "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", "0"],
        cwd=target, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("perfbench failed in %s:\n%s" % (target, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {"correct": result["correct"], **metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--workload", default="curve-scan")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="ab-bench-"))
    try:
        rotation = pair_targets(work)
        for targets in rotation:
            for side, target in targets.items():
                place(getattr(args, side), target)
        runs = {"before": [], "after": []}
        for i in range(args.pairs):
            targets = rotation[i % len(rotation)]
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            for side in order:
                run = bench(targets[side], args)
                runs[side].append(run)
                print("pair %d %-6s %s" % (i, side, json.dumps(run, sort_keys=True)),
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(render(summarize(runs["before"], runs["after"], better_directions()))))
    return 0 if all(run["correct"] for side in runs.values() for run in side) else 1


if __name__ == "__main__":
    sys.exit(main())
