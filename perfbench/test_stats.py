"""Unit tests of perfbench's metric arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_closest_ranks(self):
        values = list(range(1, 102))  # 1..101: position = level exactly
        self.assertEqual(stats.percentile(values, 50), 51)
        self.assertEqual(stats.percentile(values, 90), 91)
        self.assertEqual(stats.percentile(values, 99), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertAlmostEqual(stats.percentile([0, 10], 90), 9.0)

    def test_no_samples(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(100, 90), 10)
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(20, 50), 10)

    def test_tail_level_needs_ten_beyond(self):
        self.assertEqual(stats.tail_level(1000), 99.0)
        self.assertEqual(stats.tail_level(999), 90.0)  # 9 beyond p99
        self.assertEqual(stats.tail_level(100), 90.0)
        self.assertEqual(stats.tail_level(99), 50.0)
        self.assertEqual(stats.tail_level(20), 50.0)
        self.assertIsNone(stats.tail_level(19))

    def test_tail_level_cap(self):
        self.assertEqual(stats.tail_level(5000, cap=90.0), 90.0)
        self.assertEqual(stats.tail_level(5000, cap=50.0), 50.0)


class LittlesLaw(unittest.TestCase):
    def test_wait_is_depth_over_rate(self):
        # 200 completions in 2 s is 100/s; a mean depth of 3 waits 30 ms.
        self.assertAlmostEqual(stats.littles_law_wait_ms(3.0, 200, 2.0), 30.0)

    def test_empty_queue_or_no_completions(self):
        self.assertEqual(stats.littles_law_wait_ms(0.0, 200, 2.0), 0.0)
        self.assertEqual(stats.littles_law_wait_ms(3.0, 0, 2.0), 0.0)
        self.assertEqual(stats.littles_law_wait_ms(3.0, 10, 0.0), 0.0)


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            (1, "query", -1, 0, 100),
            (1, "cover", 0, 10, 30),
            (1, "iso.dp", 0, 40, 70),
            (1, "iso.recover", 2, 50, 60),  # nested in iso.dp
        ]
        self.assertEqual(stats.self_times(spans),
                         {"query": 50, "cover": 20, "iso.dp": 20,
                          "iso.recover": 10})

    def test_overlapping_children_count_as_their_union(self):
        spans = [
            (1, "query", -1, 0, 100),
            (1, "iso.dp", 0, 10, 50),
            (1, "iso.dp", 0, 30, 70),
        ]
        self.assertEqual(stats.self_times(spans), {"query": 40, "iso.dp": 80})

    def test_child_outside_parent_is_clipped(self):
        spans = [(1, "query", -1, 0, 10), (1, "cover", 0, 5, 20)]
        self.assertEqual(stats.self_times(spans), {"query": 5, "cover": 15})

    def test_same_name_sums_across_queries(self):
        spans = [(1, "query", -1, 0, 10), (2, "query", -1, 20, 25)]
        self.assertEqual(stats.self_times(spans), {"query": 15})


if __name__ == "__main__":
    unittest.main()
