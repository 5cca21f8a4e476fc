"""Tests for the benchmark's helpers. Run from the repository root:

  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest

import benchlib


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile(values, 0), 1)
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 50), 2.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)

    def test_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 99), 9)
        self.assertEqual(benchlib.samples_beyond(1010, 99), 10)
        self.assertEqual(benchlib.samples_beyond(100, 50), 50)

    def test_highest_resolvable_percentile(self):
        self.assertEqual(benchlib.highest_resolvable_percentile(10000), 99.9)
        self.assertEqual(benchlib.highest_resolvable_percentile(9999), 99.0)
        self.assertEqual(benchlib.highest_resolvable_percentile(1000), 99.0)
        self.assertEqual(benchlib.highest_resolvable_percentile(990), 95.0)
        self.assertEqual(benchlib.highest_resolvable_percentile(100), 90.0)
        self.assertEqual(benchlib.highest_resolvable_percentile(99), 50.0)
        self.assertIsNone(benchlib.highest_resolvable_percentile(19))
        self.assertEqual(benchlib.highest_resolvable_percentile(20), 50.0)

    def test_p99_with_ten_beyond_is_exact(self):
        # With 1000 samples the nearest-rank p99 is the 990th value, and
        # exactly ten samples lie beyond it.
        values = list(range(1000))
        p99 = benchlib.percentile(values, 99)
        self.assertEqual(p99, 989)
        self.assertEqual(sum(1 for v in values if v > p99), 10)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(span_id, parent, name, start, end):
        return (span_id, parent, 0, name, start, end)

    def test_nested(self):
        spans = [
            self.span(0, -1, "train", 0.0, 100.0),
            self.span(1, 0, "data.feed", 10.0, 20.0),
            self.span(2, 0, "data.feed", 50.0, 55.0),
            self.span(3, -1, "elect", 100.0, 130.0),
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs, {0: 85.0, 1: 10.0, 2: 5.0, 3: 30.0})

    def test_grandchildren_count_only_for_their_parent(self):
        spans = [
            self.span(0, -1, "setup", 0.0, 100.0),
            self.span(1, 0, "lifecycle", 10.0, 90.0),
            self.span(2, 1, "train", 10.0, 60.0),
            self.span(3, 2, "data.feed", 20.0, 30.0),
        ]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 20.0)
        self.assertEqual(selfs[1], 30.0)
        self.assertEqual(selfs[2], 40.0)
        self.assertEqual(selfs[3], 10.0)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            self.span(0, -1, "query", 0.0, 10.0),
            self.span(1, 0, "query.parse", 2.0, 6.0),
            self.span(2, 0, "query.exec", 4.0, 12.0),
        ]
        self.assertEqual(benchlib.self_times(spans)[0], 2.0)


class ExpectationTest(unittest.TestCase):
    GOOD = {
        "seed": 1,
        "held_out_seed": 7,
        "workloads": {
            "lifecycle": {"digest": "00ff", "stats": {"train.sent": 200000,
                                                     "elect.msgs_per_node": 4.25}},
        },
    }

    def test_parses_the_committed_file(self):
        import os
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "expectations.json")
        with open(path) as f:
            data = benchlib.load_expectations(f.read())
        self.assertNotEqual(data["seed"], data["held_out_seed"])
        for name in ("lifecycle", "query_mix", "observed_lifecycle"):
            self.assertIn(name, data["workloads"])

    def test_round_trip(self):
        data = benchlib.load_expectations(json.dumps(self.GOOD))
        self.assertEqual(data["workloads"]["lifecycle"]["stats"]["train.sent"], 200000)

    def test_rejects_malformed(self):
        bad = [
            "[]",
            json.dumps({"seed": "1", "held_out_seed": 7, "workloads": {}}),
            json.dumps({"seed": 1, "workloads": {}}),
            json.dumps({"seed": True, "held_out_seed": 7, "workloads": {}}),
            json.dumps({"seed": 1, "held_out_seed": 7, "workloads": []}),
            json.dumps({"seed": 1, "held_out_seed": 7,
                        "workloads": {"x": {"digest": "a"}}}),
            json.dumps({"seed": 1, "held_out_seed": 7,
                        "workloads": {"x": {"digest": 3, "stats": {"a": 1}}}}),
            json.dumps({"seed": 1, "held_out_seed": 7,
                        "workloads": {"x": {"digest": "a", "stats": {}}}}),
            json.dumps({"seed": 1, "held_out_seed": 7,
                        "workloads": {"x": {"digest": "a", "stats": {"a": "1"}}}}),
            json.dumps({"seed": 1, "held_out_seed": 7,
                        "workloads": {"x": {"digest": "a", "stats": {"a": None}}}}),
        ]
        for text in bad:
            with self.assertRaises(ValueError, msg=text):
                benchlib.load_expectations(text)

    def test_compare(self):
        expected = self.GOOD["workloads"]["lifecycle"]
        self.assertEqual(benchlib.compare_expectations(
            expected, "00ff", {"train.sent": 200000, "elect.msgs_per_node": 4.25}), [])
        problems = benchlib.compare_expectations(
            expected, "00fe", {"train.sent": 199999, "extra": 1})
        self.assertEqual(len(problems), 4)
        self.assertTrue(problems[0].startswith("digest"))


if __name__ == "__main__":
    unittest.main()
