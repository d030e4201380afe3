"""Self-tests for the benchmark's arithmetic.

Run from the repository root:  python3 searchbench/test_benchstats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(bs.median([3, 1, 2]), 2)
        self.assertEqual(bs.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_exclusive_method(self):
        # statistics.quantiles' default 'exclusive' method on 1..10.
        self.assertEqual(bs.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(bs.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(bs.spread([7.0] * 10), 0.0)

    def test_highest_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(bs.highest_percentile(19))
        self.assertEqual(bs.highest_percentile(20), 50.0)
        self.assertEqual(bs.highest_percentile(99), 50.0)
        self.assertEqual(bs.highest_percentile(100), 90.0)
        self.assertEqual(bs.highest_percentile(999), 90.0)
        self.assertEqual(bs.highest_percentile(1000), 99.0)
        self.assertEqual(bs.highest_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        v = list(range(1, 101))
        self.assertEqual(bs.percentile(v, 0), 1)
        self.assertEqual(bs.percentile(v, 100), 100)
        self.assertAlmostEqual(bs.percentile(v, 90), 90.1)
        self.assertEqual(bs.percentile([5], 99), 5)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            (0, -1, "eval", 0.0, 10.0),
            (1, 0, "nn.forward", 1.0, 4.0),
            (2, 0, "nn.backward", 4.0, 9.0),
            (3, 2, "inner", 5.0, 6.0),
        ]
        st = bs.self_times(spans)
        self.assertAlmostEqual(st["eval"], 2.0)
        self.assertAlmostEqual(st["nn.forward"], 3.0)
        self.assertAlmostEqual(st["nn.backward"], 4.0)
        self.assertAlmostEqual(st["inner"], 1.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            (0, -1, "root", 0.0, 10.0),
            (1, 0, "a", 2.0, 6.0),
            (2, 0, "a", 4.0, 8.0),    # overlaps the first child
            (3, 0, "b", 9.0, 12.0),   # runs past the parent's end
        ]
        st = bs.self_times(spans)
        self.assertAlmostEqual(st["root"], 10.0 - 6.0 - 1.0)

    def test_self_times_sum_by_name(self):
        spans = [(0, -1, "x", 0.0, 1.0), (1, -1, "x", 2.0, 4.0)]
        self.assertAlmostEqual(bs.self_times(spans)["x"], 3.0)

    def test_shares_sum_to_100_with_other(self):
        out = bs.shares({"a": 2.0, "b": 5.0, "unlisted": 9.0}, 10.0, ["a", "b", "c"])
        self.assertEqual(out["a"], (2.0, 20.0))
        self.assertEqual(out["c"], (0.0, 0.0))
        self.assertAlmostEqual(out["other"][0], 3.0)
        self.assertAlmostEqual(sum(p for _, p in out.values()), 100.0)

    def test_shares_reject_layers_longer_than_wall(self):
        with self.assertRaises(ValueError):
            bs.shares({"a": 11.0}, 10.0, ["a"])


if __name__ == "__main__":
    unittest.main()
