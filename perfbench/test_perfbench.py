"""Self-tests of the benchmark.

Run from the repository root:  python3 -m unittest discover -s perfbench
(a few seconds; each test uses a small configuration, not a workload).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402

#: small enough to run in seconds; secants goes through report's
#: isinstance check on the scan, which a traced run must keep working
SMALL = {"primes": [31], "a_values": "auto", "seed": 42, "symbolic_a": True,
         "suites": ["heisenberg", "lattice", "secants"], "cache_dir": None,
         "report_format": "json"}


def small_spec(trace: bool) -> dict:
    return {"src": str(run.SRC), "trace": trace, "setup_only": False,
            "config": dict(SMALL)}


def small_workload(report: dict) -> dict:
    return {"suites": SMALL["suites"], "claims": report["summary"]["total"],
            "ids_sha256": run.claim_ids_sha256(report),
            "seed42_sha256": run.sha256(run.canonical(report, False))}


class TracedRunTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        deadline = time.perf_counter() + 120
        cls.plain = run.spawn(small_spec(False), deadline)
        cls.traced = run.spawn(small_spec(True), deadline)

    def test_children_complete(self):
        for sample in (self.plain, self.traced):
            self.assertNotIn("error", sample)
            self.assertEqual(sample["report"]["summary"]["fail"], 0)

    def test_traced_report_equals_untraced(self):
        self.assertEqual(run.canonical(self.plain["report"], False),
                         run.canonical(self.traced["report"], False))
        stats = self.traced["trace"]["stats"]
        # "auto" takes two moduli at p=31
        self.assertEqual(stats["probe.certify_secant_variety.p31"][0], 2)
        self.assertEqual(stats["suite.secants"][0], 1)
        self.assertGreater(stats["scalars.Cyclo.mul"][0], 0)

    def test_traced_sample_passes_gate(self):
        samples = [self.plain, self.traced]
        workload = small_workload(self.plain["report"])
        run.apply_gate(samples, workload, 42)
        self.assertEqual([s["problems"] for s in samples], [[], []])

    def test_emitted_metric_names_match_benchmark_file(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(end_to_end, run.END_TO_END)
        self.assertEqual(per_layer, run.PER_LAYER)
        self.assertEqual({w["name"] for w in bench["workloads"]},
                         set(run.WORKLOADS))
        emitted = run.end_to_end_metrics([self.plain], [0.1], 10, 0)
        self.assertEqual(set(emitted), set(end_to_end))
        emitted = run.per_layer_metrics([self.plain], [self.traced], [])
        self.assertEqual(set(emitted), set(per_layer))


class CachedSampleTest(unittest.TestCase):
    def test_cached_sample_reads_cache_and_passes_gate(self):
        config = dict(SMALL, suites=["scan"])
        with tempfile.TemporaryDirectory() as cache_dir:
            deadline = time.perf_counter() + 120
            plain = run.spawn({"src": str(run.SRC), "trace": False,
                               "setup_only": False, "config": config},
                              deadline)
            cached = run.spawn({"src": str(run.SRC), "trace": True,
                                "setup_only": False,
                                "config": dict(config, cache_dir=cache_dir)},
                               deadline)
        cached["cached"] = True
        samples = [plain, cached]
        run.apply_gate(samples, small_workload(plain["report"]), 42)
        self.assertEqual([s["problems"] for s in samples], [[], []])
        values = run.cached_values(cached)
        self.assertEqual(values["probe.scan_curve.cache_hit_ratio"], 1.0)
        self.assertGreater(values["setup.cache_fill_s"], 0.0)


class FailureAccountingTest(unittest.TestCase):
    def test_raising_op_gives_nonzero_fail_ratio(self):
        sys.path.insert(0, str(run.SRC))
        from pentangle import probe
        with contextlib.redirect_stdout(io.StringIO()):
            good = child.main(small_spec(False))
            with mock.patch.object(probe, "certify_secant_variety",
                                   side_effect=RuntimeError("stubbed")):
                bad = child.main(small_spec(False))
        workload = small_workload(good["report"])
        samples = [good, bad]
        run.apply_gate(samples, workload, 42)
        self.assertEqual(samples[0]["problems"], [])
        self.assertTrue(samples[1]["problems"])
        failed = sum(run.failed_claims(s, workload) for s in samples)
        self.assertEqual(failed, workload["claims"])
        ratio = run.end_to_end_metrics(samples, [0.1], 2 * workload["claims"],
                                       failed)["claim_pass_ratio"]
        self.assertEqual(ratio, 0.5)

    def test_crashing_child_is_a_failed_sample(self):
        spec = small_spec(False)
        spec["config"]["primes"] = [7]   # make_config rejects it
        sample = run.spawn(spec, time.perf_counter() + 60)
        self.assertIn("error", sample)
        workload = {"claims": 5}
        run.apply_gate([sample], workload, 42)
        self.assertEqual(run.failed_claims(sample, workload), 5)


class MissingSourcesTest(unittest.TestCase):
    def test_exits_nonzero_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          ".work-*"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "identities", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
