"""Self-tests of the benchmark's own arithmetic.

Runs without compiling or running any workload::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import os
import sys
import unittest
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class Summaries(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(stats.median([7]), 7.0)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_percentile_interpolates_between_ranks(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0), 1)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertAlmostEqual(stats.percentile(values, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(values, 99), 99.01)
        self.assertAlmostEqual(stats.percentile([10, 20], 25), 12.5)
        with self.assertRaises(ValueError):
            stats.percentile(values, 101)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(39))))
        q, _ = stats.tail_percentile(list(range(40)))
        self.assertEqual(q, 75.0)  # 40 * 0.25 = 10 beyond
        q, _ = stats.tail_percentile(list(range(100)))
        self.assertEqual(q, 90.0)
        q, value = stats.tail_percentile(list(range(1000)))
        self.assertEqual(q, 99.0)
        self.assertAlmostEqual(value, 989.01)

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([1.5]), 1.5)
        self.assertAlmostEqual(stats.geomean([0.5, 2.0, 1.0]), 1.0)
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # compile [0, 10] holds frontend [1, 3] and opt [3, 7];
        # opt holds a nested opt call [4, 5]; run [10, 20] holds
        # execute [11, 19] which holds rt [12, 14] holding stitcher
        # [12.5, 13.5].
        spans = [
            ("compile", 0.0, 10.0, -1, 1),
            ("frontend", 1.0, 3.0, 0, 1),
            ("opt", 3.0, 7.0, 0, 1),
            ("opt", 4.0, 5.0, 2, 1),
            ("run", 10.0, 20.0, -1, 1),
            ("execute", 11.0, 19.0, 4, 1),
            ("rt", 12.0, 14.0, 5, 1),
            ("stitcher", 12.5, 13.5, 6, 1),
        ]
        selfs = stats.self_times(spans)
        self.assertAlmostEqual(selfs["compile"], 4.0)
        self.assertAlmostEqual(selfs["frontend"], 2.0)
        self.assertAlmostEqual(selfs["opt"], 4.0)  # 3 outer + 1 inner
        self.assertAlmostEqual(selfs["run"], 2.0)
        self.assertAlmostEqual(selfs["execute"], 6.0)
        self.assertAlmostEqual(selfs["rt"], 1.0)
        self.assertAlmostEqual(selfs["stitcher"], 1.0)
        # Self times partition the covered wall time.
        self.assertAlmostEqual(sum(selfs.values()), 20.0)

    def test_leaf_span_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([("x", 1.0, 1.25, -1, 0)]),
                         {"x": 0.25})


def _result(entries=10, hits=0, stitches=0, fallbacks=0, cold=0,
            queued=0, queue=None):
    return SimpleNamespace(
        region_entries={("f", 1): entries}, cache_hits=[None] * hits,
        stitch_reports=[None] * stitches, fallbacks=[None] * fallbacks,
        cold_entries=[None] * cold, queued_entries=[None] * queued,
        queue_stats=queue, backend="rvm")


def _queue(enqueued, landed=0, expired=0, cancelled=None, pending=0):
    return SimpleNamespace(enqueued=enqueued, landed=landed,
                           expired=expired, cancelled=cancelled or {},
                           pending=pending)


class Accounting(unittest.TestCase):
    def test_partition_holds(self):
        result = _result(entries=10, hits=4, stitches=2, fallbacks=1,
                         cold=2, queued=1)
        self.assertIsNone(stats.partition_error(result))

    def test_partition_broken(self):
        result = _result(entries=10, hits=4, stitches=2)
        self.assertIn("6 != 10 entries", stats.partition_error(result))

    def test_conservation_holds(self):
        queue = _queue(9, landed=4, expired=1,
                       cancelled={"evict": 2, "breaker": 1}, pending=1)
        self.assertIsNone(stats.conservation_error(_result(queue=queue)))

    def test_conservation_broken_by_an_unaccounted_job(self):
        # The shape of the kept failure: admitted jobs displaced into
        # no terminal bucket.
        queue = _queue(23, cancelled={"evict": 18})
        message = stats.conservation_error(_result(queue=queue))
        self.assertIn("23 enqueued", message)
        self.assertIn("= 18", message)

    def test_sync_run_has_nothing_to_conserve(self):
        self.assertIsNone(stats.conservation_error(_result(queue=None)))


class Rows(unittest.TestCase):
    def test_region_rows_and_overhead(self):
        static = SimpleNamespace(cycles_by_owner={
            "region:f:1": 900, "region:g:1": 50, "main": 10})
        dynamic = SimpleNamespace(
            cycles_by_owner={"stitched:f:1": 250, "dispatch:f:1": 50,
                             "setup:f:1": 400, "stitcher:f:1": 600},
            stitch_reports=[SimpleNamespace(instrs_emitted=4),
                            SimpleNamespace(instrs_emitted=6)])
        # g never ran dynamically: skipped, not a zero or infinite row.
        self.assertEqual(stats.region_rows(static, dynamic), [3.0])
        self.assertEqual(stats.overhead_cycles(dynamic), (1000, 10))
        self.assertTrue(math.isclose(stats.geomean([3.0, 1.0 / 3.0]), 1.0))


if __name__ == "__main__":
    unittest.main()
