#!/usr/bin/env python3
"""Benchmark of `verify run`: end-to-end times per workload, and layer
timings from a traced run.

Usage:
  python3 perfbench/run.py --workload identities [--seed 42] [--seconds 60] [--trace 0|1]
  python3 perfbench/run.py --workload all

Every sample is a fresh child process (child.py), one at a time: a
closed loop with one client, the next sample starting when the previous
one has ended.  A run takes at least one sample, and starts another
only while it is expected to end within --seconds.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
untraced/traced pairs and reports the per-layer metrics, including the
tracing overhead (on curve-scan each pair is joined by a traced sample
that reads a point cache filled in its set-up).  Every sample's report
goes through a correctness gate; a sample that crashes or fails the gate
counts all of its claims as failed instead of stopping the benchmark.
The last line of output is one JSON object: correct, attempted and
failed claims, and the metrics.

Standard library only; the program is imported from ./src of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PRIMES = (31, 61)
CURVE_SUITES = ("scan", "secants", "incidence", "cremona")
SUITES = ("hesse", "heisenberg", "sections", "moore", "lattice") + CURVE_SUITES

_IDENTITY_IDS = "620db8af1e45127848a3fbd5a3075b4ee39ad84b631b6d712aeb7be34c5c1c38"
_IDENTITY_SEED42 = "dfb3b8f071983c16b6ef964d4cd19e1ec1d0d7dfd34b4b6da8de1b89f8a8fd15"
_CURVE_IDS = "909f4a1ad865f45bd21f73c7f88d7e0ed395f3c469902279f7d529c30d1edfaf"
_CURVE_SEED42 = "c663f74198d41d1f069e7e040e86b32a08c72b8b8c41c390813f5b6ddb19acc1"

#: the two workloads split the default run's nine suites, so
#: identities.run_s + curve-scan.run_s is a default `verify run`.  The
#: hashes are of the claim id list (the same for every seed) and of the
#: canonical report at seed 42; a cached report canonicalises to the
#: uncached one, so curve-scan's cached samples share them.
WORKLOADS = {
    "identities": {"suites": SUITES[:5], "claims": 175,
                   "ids_sha256": _IDENTITY_IDS,
                   "seed42_sha256": _IDENTITY_SEED42},
    "curve-scan": {"suites": CURVE_SUITES, "claims": 88,
                   "ids_sha256": _CURVE_IDS, "seed42_sha256": _CURVE_SEED42},
}

#: set-ups measured per untraced run; set-up-only children top up the
#: samples to this count
MIN_SETUPS = 9
#: every sample is killed at this many seconds after the run started,
#: so a run ends inside the 180 s a run may take
RUN_DEADLINE_S = 165.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


# -- one child process -------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PENTANGLE_CACHE_DIR", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(spec: dict, deadline: float) -> dict:
    """Run child.py on spec; returns its output plus setup_s and an error
    string when the child did not produce a result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=child_env(),
        cwd=str(ROOT), text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "ready":
        return {"error": "child exited with %s before set-up finished"
                % proc.returncode}
    out = {"setup_s": setup_s}
    if spec.get("setup_only"):
        return out
    if proc.returncode != 0:
        out["error"] = "child exited with %s" % proc.returncode
        return out
    try:
        out.update(json.loads(rest.strip().splitlines()[-1]))
    except (IndexError, ValueError) as exc:
        out["error"] = "unreadable child output: %s" % exc
    return out


def run_child(workload: dict, seed: int, workdir: str, deadline: float,
              trace: bool = False, setup_only: bool = False,
              cached: bool = False) -> dict:
    """One child; a cached one gets a cache directory of its own, which
    it fills during set-up."""
    cache_dir = tempfile.mkdtemp(dir=workdir) if cached else None
    config = {"primes": list(PRIMES), "a_values": "auto", "seed": seed,
              "symbolic_a": True, "suites": list(workload["suites"]),
              "cache_dir": cache_dir, "report_format": "json"}
    try:
        sample = spawn({"src": str(SRC), "trace": trace,
                        "setup_only": setup_only, "config": config}, deadline)
        sample["cached"] = cached
        return sample
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)


# -- correctness gate --------------------------------------------------


def _drop_elapsed(node):
    if isinstance(node, dict):
        return {k: _drop_elapsed(v) for k, v in node.items()
                if k != "elapsed_ms"}
    if isinstance(node, list):
        return [_drop_elapsed(v) for v in node]
    return node


def _is_scan_claim(claim: dict) -> bool:
    return claim["id"].startswith("scan:curve-scan-completes")


def canonical(report: dict, cached: bool) -> str:
    """The report without wall times, the cache_dir echo and (for a
    cached sample) the scan source, which is the only text a cache may
    change."""
    rep = _drop_elapsed(report)
    rep["config"].pop("cache_dir", None)
    if cached:
        for claim in rep["claims"]:
            if _is_scan_claim(claim):
                claim["witness"] = claim["witness"].replace(
                    "(cache)", "(fresh scan)")
    return json.dumps(rep, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def claim_ids_sha256(report: dict) -> str:
    return sha256("\n".join(claim["id"] for claim in report["claims"]))


def gate_problems(report: dict, digest: str, workload: dict, seed: int,
                  cached: bool) -> list:
    """Reasons a single report, whose canonical form hashes to digest, is
    wrong; empty when it passes."""
    problems = []
    summary = report["summary"]
    if summary["total"] != workload["claims"]:
        problems.append("%d claims, expected %d"
                        % (summary["total"], workload["claims"]))
    if summary["fail"]:
        problems.append("%d failing claims" % summary["fail"])
    source = "(cache)" if cached else "(fresh scan)"
    for claim in report["claims"]:
        if _is_scan_claim(claim) and source not in claim["witness"]:
            problems.append("%s: scan source is not %s"
                            % (claim["id"], source))
    ids = claim_ids_sha256(report)
    if ids != workload["ids_sha256"]:
        problems.append("claim id list has sha256 %s, expected %s"
                        % (ids, workload["ids_sha256"]))
    if seed == 42 and digest != workload["seed42_sha256"]:
        problems.append("seed-42 canonical report has sha256 %s, expected %s"
                        % (digest, workload["seed42_sha256"]))
    return problems


def apply_gate(samples: list, workload: dict, seed: int) -> None:
    """Mark each sample with its problems; within one run all canonical
    reports, cached or not, must agree, and the most common one is taken
    as right."""
    canon = {}
    for i, sample in enumerate(samples):
        if "error" in sample:
            sample["problems"] = [sample["error"]]
            continue
        cached = sample.get("cached", False)
        canon[i] = sha256(canonical(sample["report"], cached))
        sample["problems"] = gate_problems(sample["report"], canon[i],
                                           workload, seed, cached)
    if canon:
        majority = collections.Counter(canon.values()).most_common(1)[0][0]
        for i, digest in canon.items():
            if digest != majority:
                samples[i]["problems"].append(
                    "canonical report differs from the other samples")


def failed_claims(sample: dict, workload: dict) -> int:
    if sample["problems"]:
        return workload["claims"]
    summary = sample["report"]["summary"]
    return summary["fail"] + summary["soft-fail"]


# -- metrics -----------------------------------------------------------

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "claim_pass_ratio": "ratio"}


CALLS, TOTAL, SELF = 0, 1, 2


def _layer_table() -> dict:
    """Per-layer metric -> (unit, span name, field of its totals); the
    span name is None for numbers that do not come from one span."""
    table = {}

    def span(metric, name, field):
        table[metric] = ("count" if field == CALLS else "s", name, field)

    for kernel in ("scalars.Cyclo.mul", "scalars.RatFunc.mul",
                   "scalars.RatFunc.add", "scalars.RatFunc.truediv",
                   "scalars.Fp.mul", "multipoly.MultiPoly.mul",
                   "multipoly.MultiPoly.exact_div"):
        span(kernel + ".calls", kernel, CALLS)
        span(kernel + ".self_s", kernel, SELF)
    for route, field in (("bareiss", "ratfunc"), ("cofactor", "cyclo"),
                         ("cofactor", "fp"), ("bareiss", "fp")):
        span("multipoly.det.%s.%s.s" % (route, field),
             "multipoly.det_%s.%s" % (route, field), TOTAL)
    for op in ("verify_matrix_identities", "verify_span_claims"):
        for kind in ("symbolic", "fp"):
            name = "moore.%s.%s" % (op, kind)
            span(name + ".s", name, TOTAL)
    for name in ("moore.build_moore_matrices",
                 "hessepencil.find_torsion_witness",
                 "hessepencil.verify_intersection_arithmetic",
                 "hessepencil.verify_fermat_identities"):
        span(name + ".s", name, TOTAL)
    span("hessepencil.verify_six_secant_criterion.self_s",
         "hessepencil.verify_six_secant_criterion", SELF)
    for op in ("scan_curve", "certify_secant_variety", "certify_incidence",
               "interpolate_cremona_inverse"):
        for name in ["probe." + op] + ["probe.%s.p%d" % (op, p)
                                       for p in PRIMES]:
            span(name + ".s", name, TOTAL)
    for suite in SUITES:
        span("suite.%s.s" % suite, "suite." + suite, TOTAL)
    span("report.run.s", "report.run", TOTAL)
    for metric, unit in (("hessepencil.find_torsion_witness.candidates",
                          "count"),
                         ("probe.scan_curve.points", "count"),
                         ("probe.scan_curve.cache_hit_ratio", "ratio"),
                         ("cached.probe.scan_curve.s", "s"),
                         ("cached.run_s", "s"),
                         ("cached.setup_s", "s"),
                         ("trace.overhead_s", "s"),
                         ("setup.import_s", "s"),
                         ("setup.cache_fill_s", "s")):
        table[metric] = (unit, None, None)
    return table


LAYER_TABLE = _layer_table()
PER_LAYER = {metric: unit for metric, (unit, _, _) in LAYER_TABLE.items()}


def layer_values(trace: dict) -> dict:
    """Per-layer numbers of one traced sample, from its span totals and
    counters."""
    stats, counts = trace["stats"], trace["counts"]
    values = {metric: stats.get(name, (0, 0.0, 0.0))[field]
              for metric, (_, name, field) in LAYER_TABLE.items() if name}
    for metric in ("hessepencil.find_torsion_witness.candidates",
                   "probe.scan_curve.points"):
        values[metric] = counts.get(metric, 0)
    return values


def cached_values(sample: dict) -> dict:
    """What one traced sample that read a point cache adds to the
    per-layer numbers: the read path's cost and how often it was taken."""
    stats, counts = sample["trace"]["stats"], sample["trace"]["counts"]
    scans = stats.get("probe.scan_curve", (0,))[CALLS]
    return {
        "probe.scan_curve.cache_hit_ratio":
            counts.get("probe.scan_curve.cache_hits", 0) / scans
            if scans else 0.0,
        "cached.probe.scan_curve.s":
            stats.get("probe.scan_curve", (0, 0.0))[TOTAL],
        "cached.run_s": sample["run_s"],
        "cached.setup_s": sample["setup_s"],
        "setup.cache_fill_s": sample["cache_fill_s"],
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(samples: list, setups: list, attempted: int,
                       failed: int) -> dict:
    done = [s for s in samples if "run_s" in s]
    return {
        "run_s": _median([s["run_s"] for s in done]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([s["maxrss_kb"] / 1024.0 for s in done]),
        "claim_pass_ratio": 1.0 - failed / attempted,
    }


def per_layer_metrics(plain: list, traced: list, cached: list) -> dict:
    """Medians over the traced samples; the cache numbers come from the
    cached samples and are 0 when a run has none."""
    metrics = {}
    for values in ([layer_values(s["trace"]) for s in traced if "trace" in s],
                   [cached_values(s) for s in cached if "trace" in s]):
        if values:
            metrics.update({name: _median([v[name] for v in values])
                            for name in values[0]})
    done = [s for s in plain + traced if "run_s" in s]
    metrics["setup.import_s"] = _median([s["import_s"] for s in done])
    metrics["trace.overhead_s"] = (
        _median([s["run_s"] for s in traced if "run_s" in s])
        - _median([s["run_s"] for s in plain if "run_s" in s]))
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


# -- a run -------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    plain, traced, cached, setups = [], [], [], []
    longest = 0.0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:
        while True:
            t0 = time.perf_counter()
            plain.append(run_child(workload, seed, work, deadline))
            if trace:
                traced.append(run_child(workload, seed, work, deadline,
                                        trace=True))
            # a traced run of the scan suite also runs it from a cache
            if trace and "scan" in workload["suites"]:
                cached.append(run_child(workload, seed, work, deadline,
                                        trace=True, cached=True))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now + longest - start > seconds:
                break
        setups = [s["setup_s"] for s in plain if "setup_s" in s]
        while not trace and len(setups) < MIN_SETUPS:
            extra = run_child(workload, seed, work, deadline, setup_only=True)
            if "setup_s" not in extra:
                break
            setups.append(extra["setup_s"])

    samples = plain + traced + cached
    apply_gate(samples, workload, seed)
    attempted = workload["claims"] * len(samples)
    failed = sum(failed_claims(s, workload) for s in samples)
    if trace:
        metrics, units = per_layer_metrics(plain, traced, cached), PER_LAYER
    else:
        metrics = end_to_end_metrics(samples, setups, attempted, failed)
        units = END_TO_END
    return {
        "workload": name,
        "samples": samples,
        "setups": len(setups),
        "correct": not any(s["problems"] for s in samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def describe(result: dict) -> list:
    """Human-readable lines for one workload's result."""
    samples = result["samples"]
    lines = ["workload %s: %d samples, %d set-ups, claim_fail_ratio %.6g "
             "(%d of %d claims)"
             % (result["workload"], len(samples), result["setups"],
                result["failed"] / result["attempted"], result["failed"],
                result["attempted"])]
    for sample in samples:
        if sample["problems"]:
            lines.append("  gate: %s" % "; ".join(sample["problems"]))
    for name, metric in result["metrics"].items():
        lines.append("  %-48s %14.6g %s" % (name, metric["value"],
                                             metric["unit"]))
    runs = [s["run_s"] for s in samples if "run_s" in s and "trace" not in s]
    if runs:
        lines.append("  untraced run_s samples: %s"
                     % ", ".join("%.3f" % r for r in runs))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "pentangle" / "report.py").is_file():
        print("perfbench: no pentangle sources at %s" % SRC, file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(describe(result)), flush=True)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, sort_keys=True))
    # a run in which no sample finished has no timings to report
    completed = all(any("run_s" in s for s in r["samples"]) for r in results)
    return 0 if completed else 1


if __name__ == "__main__":
    sys.exit(main())
