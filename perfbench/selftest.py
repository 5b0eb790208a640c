"""The benchmark's own tests: span arithmetic, failure accounting, and a
tiny-size run of every workload that must emit every metric of
``BENCHMARK.json`` with its unit.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from gates import Tally, check_counts, fail_upper_bound  # noqa: E402
from spans import Span, SpanRecorder, overlap_seconds, self_seconds, union_seconds  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    return run_bench(
        *("--workload", workload, "--seed", str(seed), "--seconds", "1"),
        *("--trace", str(trace), "--tiny"),
    )


def span(id, name, start, end, parent=-1, thread=1):
    return Span(id, name, start, end, parent, thread, 0.0, 0)


class SpanArithmetic(unittest.TestCase):
    def test_union_merges_overlaps(self):
        self.assertEqual(union_seconds([(5, 6), (0, 2), (1, 3)]), 4)
        self.assertEqual(union_seconds([]), 0)

    def test_self_time_subtracts_covered_children_once(self):
        spans = [
            span(0, "hop0", 0, 10),
            span(1, "hop1", 1, 3, parent=0),
            span(2, "engine", 2, 5, parent=0),  # overlaps hop1
            span(3, "prebuild", 0, 10, thread=2),  # another thread: not a child
        ]
        self.assertAlmostEqual(self_seconds(spans, "hop0"), 6)
        self.assertAlmostEqual(
            self_seconds(spans, "hop0", lambda child: child.name.startswith("hop")), 8
        )

    def test_self_time_clips_children_to_the_parent(self):
        spans = [span(0, "a", 0, 4), span(1, "b", 3, 9, parent=0)]
        self.assertAlmostEqual(self_seconds(spans, "a"), 3)

    def test_overlap_counts_time_with_two_open(self):
        self.assertAlmostEqual(overlap_seconds([(0, 4), (2, 6), (5, 7)]), 3)
        self.assertEqual(overlap_seconds([(0, 1), (1, 2)]), 0)


class Recorder(unittest.TestCase):
    def test_nested_calls_link_parents_per_thread(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        layer = Layer()
        recorder = SpanRecorder()
        recorder.patch(layer, "outer", "outer")
        recorder.patch(layer, "inner", "inner")
        self.assertEqual(layer.outer(), 2)
        worker = threading.Thread(target=layer.inner)
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        recorder.restore()
        self.assertNotIn("outer", vars(layer))
        by_name = {}
        for s in recorder.spans:
            by_name.setdefault(s.name, []).append(s)
        (outer,) = by_name["outer"]
        nested, threaded = sorted(by_name["inner"], key=lambda s: s.parent, reverse=True)
        self.assertEqual(nested.parent, outer.id)
        self.assertEqual(threaded.parent, -1)
        self.assertNotEqual(threaded.thread, outer.thread)

    def test_timed_iter_spans_each_pull(self):
        class Source:
            def items(self):
                yield from (1, 2, 3)

        source = Source()
        recorder = SpanRecorder()
        recorder.timed_iter(source, "items", "pull")
        self.assertEqual(list(source.items()), [1, 2, 3])
        recorder.restore()
        self.assertEqual(sum(1 for s in recorder.spans if s.name == "pull"), 4)


class FailureBound(unittest.TestCase):
    def test_zero_failures_is_small_and_positive(self):
        bound = fail_upper_bound(0, 1000)
        self.assertAlmostEqual(bound, 1 - 0.05 ** (1 / 1000), places=6)

    def test_one_failure_exceeds_the_bound(self):
        fail_bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "fail_frac")
        for attempted in (300, 15_000, 40_000):
            zero, one = fail_upper_bound(0, attempted), fail_upper_bound(1, attempted)
            self.assertGreater(one / zero, 1 + fail_bound)

    def test_monotone_in_failures(self):
        values = [fail_upper_bound(k, 500) for k in range(0, 20)]
        self.assertEqual(values, sorted(values))
        self.assertEqual(fail_upper_bound(500, 500), 1.0)


class Determinism(unittest.TestCase):
    def test_equal_counts_pass(self):
        tally = Tally()
        check_counts(tally, {"noise": 43.0, "bytes": 1288.5}, {"noise": 43.0, "bytes": 1288.5})
        self.assertEqual((tally.attempted, tally.failed), (2, 0))

    def test_drift_is_a_failed_check(self):
        tally = Tally()
        check_counts(tally, {"noise": 43.0, "bytes": 1288.5}, {"noise": 44.0, "bytes": 1288.5})
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("noise", tally.errors[0])


class TinyRuns(unittest.TestCase):
    def check(self, proc, section):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr[-2000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = self.check(tiny(workload, 0), "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                self.check(tiny(workload, 1), "per_layer")

    def test_refuses_to_run_without_the_program(self):
        work = ROOT / ".perfbench"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(HERE, Path(bare) / "perfbench", ignore=ignore)
            args = ("--workload", "conv_swarm", "--seed", "1", "--seconds", "1", "--trace", "0")
            proc = run_bench(*args, cwd=Path(bare))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
