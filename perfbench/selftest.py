"""Self-test of the benchmark at tiny sizes (about a minute on one core).

Checks that every workload emits every metric ``BENCHMARK.json`` names and
records none it does not name, that traced self times plus ``other_s`` add
up to the traced wall time, that corrupted program outputs are counted as
failed operations instead of passing silently, and that a skipped sgm update
moves ``auc`` by more than its bound::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402  (the benchmark harness, importable for in-process runs)
from hostspeed import HostSpeed  # noqa: E402


def run_tiny(workload: str, trace: int) -> tuple:
    """``(result line, report)`` of one tiny run in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300,
    )
    if proc.returncode:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def measure_tiny(workload: str) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--size", "tiny"])
    start = time.perf_counter()
    with HostSpeed() as probe:
        return run.measure(args, start, probe)


class MetricContract(unittest.TestCase):
    def test_workloads_match(self):
        from workloads import WORKLOADS

        self.assertEqual(set(WORKLOADS), set(run.WORKLOAD_NAMES))

    def test_every_metric_emitted_and_declared(self):
        for workload in run.WORKLOAD_NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result, report = run_tiny(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), list(run.UNITS[key]))
                    # Anything measured but not declared would be dropped.
                    self.assertLessEqual(set(report[key]), set(run.UNITS[key]))
                    if not trace:
                        self.assertEqual(set(report[key]), set(run.UNITS[key]))
                    values = {k: v["value"] for k, v in result["metrics"].items()}
                    self.assertTrue(all(math.isfinite(v) for v in values.values()))
                    if trace:
                        layers = sum(v for k, v in values.items()
                                     if k.endswith("_s") and not k.startswith("trace."))
                        self.assertAlmostEqual(layers, values["trace.wall_s"], places=9)
                    else:
                        self.assertTrue(all(v != 0 for v in values.values()))


class CorruptedOutputs(unittest.TestCase):
    def assert_failed(self, report: dict, fragment: str) -> None:
        self.assertGreater(report["failed_frac"], 0.0)
        self.assertTrue(any(fragment in p for p in report["problems"]), report["problems"])
        self.assertFalse(run.result_line(report, False)["correct"])

    def test_clean_run_has_no_failures(self):
        self.assertEqual(measure_tiny("advsgm-ppi")["failed_frac"], 0.0)

    def test_non_finite_embeddings(self):
        from repro.core.discriminator import AdvSGMDiscriminator

        original = AdvSGMDiscriminator.apply_gradients

        def poisoned(self, *args, **kwargs):
            original(self, *args, **kwargs)
            self.w_in[0, 0] = float("nan")

        with mock.patch.object(AdvSGMDiscriminator, "apply_gradients", poisoned):
            self.assert_failed(measure_tiny("advsgm-ppi"), "non-finite embeddings")

    def test_nondeterministic_output(self):
        from repro.evals.link_prediction import LinkPredictionTask

        original = LinkPredictionTask.evaluate
        calls = []

        def drifting(self, source):
            result = original(self, source)
            calls.append(None)
            result.auc -= 1e-3 * len(calls)
            return result

        with mock.patch.object(LinkPredictionTask, "evaluate", drifting):
            self.assert_failed(measure_tiny("node2vec-ppi"), "differs from repetition 0")

    def test_resume_that_recomputes(self):
        from repro.cache.store import ResultStore

        with mock.patch.object(ResultStore, "get", lambda self, cell, **kw: None):
            self.assert_failed(measure_tiny("fig3-sweep"), "resume pass computed 10 cells")


class QualityGuard(unittest.TestCase):
    def test_skipped_sgm_update_moves_auc_past_its_bound(self):
        from repro.backend.numpy_backend import NumpyBackend

        bound = next(m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == "auc")
        clean = measure_tiny("sgm-50k")["end_to_end"]["auc"]
        with mock.patch.object(NumpyBackend, "index_add_", lambda self, *a, **kw: None):
            skipped = measure_tiny("sgm-50k")["end_to_end"]["auc"]
        self.assertGreater((clean - skipped) / clean, bound)


if __name__ == "__main__":
    unittest.main()
