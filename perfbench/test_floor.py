"""Unit tests for the noise-floor arithmetic: python3 -m unittest perfbench/test_floor.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import floor  # noqa: E402


class Quartiles(unittest.TestCase):
    def test_exclusive_quartiles_and_spread(self):
        s = floor.summarize(list(range(1, 11)))
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s["spread"], (8.25 - 2.75) / 5.5)

    def test_order_does_not_matter(self):
        a = floor.summarize([3.0, 1.0, 2.0, 5.0, 4.0])
        b = floor.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((a["q1"], a["median"], a["q3"]), (b["q1"], b["median"], b["q3"]))

    def test_identical_values_have_no_spread(self):
        self.assertEqual(floor.summarize([100.0] * 10)["spread"], 0.0)

    def test_zero_median_has_unbounded_spread(self):
        self.assertTrue(math.isinf(floor.summarize([0.0] * 10)["spread"]))


class Steadiness(unittest.TestCase):
    def test_spread_must_stay_under_a_third_of_the_bound(self):
        self.assertTrue(floor.steady("step_ms.p50", 0.03, 0.1))
        self.assertFalse(floor.steady("step_ms.p50", 0.034, 0.1))

    def test_setup_spread_is_not_judged(self):
        self.assertTrue(floor.steady("setup_s", 5.0, 0.25))


class ResultLine(unittest.TestCase):
    def test_last_nonempty_line_is_the_result(self):
        out = 'table line\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {}}\n\n'
        self.assertEqual(floor.last_json(out)["attempted"], 3)

    def test_no_output_is_an_error(self):
        with self.assertRaises(ValueError):
            floor.last_json("\n")


class DeclaredMetrics(unittest.TestCase):
    def test_result_must_match_declared_names_and_units(self):
        declared = {"a_ms": "ms", "b": "count"}
        good = {"metrics": {"a_ms": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "count"}}}
        self.assertEqual(floor.metric_problems(good, declared), [])
        bad = {"metrics": {"a_ms": {"value": 1.5, "unit": "s"}, "c": {"value": 0, "unit": "%"}}}
        self.assertEqual(sorted(floor.metric_problems(bad, declared)),
                         ["a_ms: unit s, declared ms", "missing b", "undeclared c"])


if __name__ == "__main__":
    unittest.main()
