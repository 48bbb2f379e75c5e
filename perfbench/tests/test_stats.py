"""Tests of the benchmark's statistics.

    python3 perfbench/tests/test_stats.py
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402


def span(id, parent, start, end, name="core.sketchAll", tag="", pass_=1):
    return {"id": id, "parent": parent, "name": name, "tag": tag, "pass": pass_,
            "start_ns": start, "end_ns": end, "jobs": 0, "tasks": 0, "task_ms": 0,
            "shuffle_write_bytes": 0}


class PercentileTest(unittest.TestCase):

    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 50), 50)
        self.assertEqual(stats.percentile(xs, 90), 90)
        self.assertEqual(stats.percentile(xs, 100), 100)
        self.assertEqual(stats.percentile([7.0], 90), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_p90_needs_100_samples_for_10_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(99, 90), 9)
        self.assertEqual(stats.samples_beyond(20, 50), 10)
        self.assertEqual(stats.samples_beyond(19, 50), 9)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.highest_percentile(1000), 99)
        self.assertEqual(stats.highest_percentile(200), 95)
        self.assertEqual(stats.highest_percentile(100), 90)
        self.assertEqual(stats.highest_percentile(99), 75)
        self.assertEqual(stats.highest_percentile(20), 50)
        self.assertIsNone(stats.highest_percentile(19))

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class SelfTimeTest(unittest.TestCase):

    def test_no_children(self):
        self.assertEqual(stats.self_times([span(1, 0, 0, 100)]), {1: 100})

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 70)]
        st = stats.self_times(spans)
        self.assertEqual(st[1], 100 - 60)  # children cover [10, 70)
        self.assertEqual(st[2], 40)
        self.assertEqual(st[3], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 90, 130), span(3, 1, 20, 30)]
        self.assertEqual(stats.self_times(spans)[1], 100 - 10 - 10)

    def test_nested_children_only_subtract_from_their_parent(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 0, 60), span(3, 2, 0, 50)]
        st = stats.self_times(spans)
        self.assertEqual((st[1], st[2], st[3]), (40, 10, 50))

    def test_covered(self):
        self.assertEqual(stats.covered([]), 0)
        self.assertEqual(stats.covered([(0, 10), (5, 15), (20, 25), (21, 22)]), 20)


class ErrorRateTest(unittest.TestCase):

    def test_base_is_calls_plus_checks(self):
        # 90 calls (2 threw) and 10 checks (1 failed): 3 failures in 100 operations.
        self.assertAlmostEqual(stats.error_rate(90, 2, 10, 1), 0.03)

    def test_zero(self):
        self.assertEqual(stats.error_rate(5, 0, 5, 0), 0.0)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0, 0, 0)


class DeriveTest(unittest.TestCase):

    def raw(self):
        ms = 1_000_000
        passes = [{"traced": False, "start_ns": 0, "end_ns": 1000 * ms},
                  {"traced": True, "start_ns": 2000 * ms, "end_ns": 3100 * ms}]
        spans = [span(1, 0, -500 * ms, -400 * ms, "lakebench.generate", pass_=-1),
                 span(2, 0, 2000 * ms, 2600 * ms, "core.sketchAll", "wiki"),
                 span(3, 0, 2600 * ms, 3000 * ms, "core.sketchAll", "ckan_subset")]
        spans[1]["task_ms"] = 880
        return {"passes": passes, "session_s": 2.0, "setup_reps_s": [1.0, 3.0, 2.0], "warmup_s": 0.5,
                "heap_retained_mb": 100.0, "values": {}, "counts": {"lakebench.cells": 1000},
                "samples": {}, "spans": spans, "cores": 4}

    def test_end_to_end(self):
        m = stats.derive(self.raw())
        self.assertEqual(m["setup_s"], 2.0 + 2.0 + 0.5)
        self.assertEqual(m["wall_s"], 1.0)
        self.assertEqual(m["heap_retained_mb"], 100.0)

    def test_layers_and_trace(self):
        m = stats.derive(self.raw())
        self.assertAlmostEqual(m["core.sketch_ms"], 1000.0)
        self.assertAlmostEqual(m["core.sketch_ms.wiki"], 600.0)
        self.assertAlmostEqual(m["lakebench.generate_ms"], 100.0 / 3)
        self.assertAlmostEqual(m["core.sketch_cells_per_s"], 1000.0)
        self.assertAlmostEqual(m["trace.unattributed_ms"], 100.0)
        self.assertAlmostEqual(m["trace.overhead_pct"], 10.0)
        self.assertAlmostEqual(m["spark.busy_ratio"], 880 / (1100 * 4))

    def test_every_benchmark_metric_is_derived(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        m = stats.derive(self.raw())
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(metric["name"], m)


if __name__ == "__main__":
    unittest.main()
