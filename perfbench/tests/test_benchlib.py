"""Tests for perfbench/benchlib.py.

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import contextlib
import io
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import benchlib  # noqa: E402


def span(id_, parent, start, end, layer="core", aggregate=False, name="s"):
    return {"id": id_, "parent": parent, "layer": layer, "name": name,
            "start": start, "end": end, "aggregate": aggregate}


class PercentileRule(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        for n in (11, 21, 30, 57, 100, 1000):
            values = list(range(1, n + 1))
            tail = benchlib.tail_percentile(values)
            if tail is None:
                continue
            pct, value = tail
            self.assertGreaterEqual(sum(v > value for v in values), 10, n)
            # One percentile higher would leave fewer than ten beyond.
            higher = benchlib.nearest_rank(values, pct + 1)
            self.assertLess(sum(v > higher for v in values), 10, n)

    def test_known_tails(self):
        self.assertEqual(benchlib.tail_percentile(list(range(1, 101))), (90, 90))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 1001))), (99, 990))
        self.assertEqual(benchlib.tail_percentile(list(range(1, 31))), (66, 20))

    def test_no_tail_without_enough_samples_above_the_median(self):
        self.assertIsNone(benchlib.tail_percentile(list(range(10))))
        self.assertIsNone(benchlib.tail_percentile(list(range(20))))

    def test_summary_reports_median_tail_and_count(self):
        s = benchlib.summary([float(v) for v in range(100, 0, -1)])
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual((s["tail_pct"], s["tail"]), (90, 90.0))
        self.assertNotIn("tail", benchlib.summary([1.0, 2.0, 3.0]))

    def test_normalised_median_factors_out_host_speed(self):
        # The same rep, once on a quiet and twice on a 1.5x slower host.
        samples = [[1, 0.10, 0.10, 0.004], [1, 0.15, 0.15, 0.006], [1, 0.15, 0.15, 0.006]]
        self.assertAlmostEqual(benchlib.normalised_median(samples, 0.004), 0.10)
        self.assertAlmostEqual(benchlib.normalised_median(samples, 0.002), 0.05)


class Spread(unittest.TestCase):
    def test_matches_quartiles_over_median(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_known_value_and_constant_input(self):
        self.assertEqual(benchlib.spread([1, 2, 3, 4, 5]), 1.0)
        self.assertEqual(benchlib.spread([7.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(0, -1, 0, 100, "bench"), span(1, 0, 10, 40), span(2, 1, 20, 30)]
        self.assertEqual(benchlib.self_times(spans), {0: 70, 1: 20, 2: 10})

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100, "bench"), span(1, 0, 10, 50), span(2, 0, 30, 70)]
        self.assertEqual(benchlib.self_times(spans)[0], 40)

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, -1, 0, 100, "bench"), span(1, 0, 90, 130)]
        self.assertEqual(benchlib.self_times(spans)[0], 90)

    def test_aggregate_child_subtracts_its_summed_duration(self):
        spans = [span(0, -1, 0, 100, "apps"), span(1, 0, 0, 35, "adders", aggregate=True),
                 span(2, 0, 50, 60)]
        self.assertEqual(benchlib.self_times(spans), {0: 55, 1: 35, 2: 10})

    def test_layer_totals_and_coverage(self):
        spans = [span(0, -1, 0, 100, "bench", name="leg.a"),
                 span(1, 0, 10, 60, "apps"), span(2, 1, 0, 20, "adders", aggregate=True),
                 span(3, 0, 60, 95, "core"),
                 span(4, -1, 200, 300, "bench", name="leg.a"), span(5, 4, 200, 300, "core")]
        self.assertEqual(benchlib.layer_self_times(spans),
                         {"bench": 15, "apps": 30, "adders": 20, "core": 135})
        self.assertEqual(benchlib.coverage(spans), {"leg.a": (200, 185)})


class Arguments(unittest.TestCase):
    WORKLOADS = ("narrow", "wide")

    def parse(self, *argv):
        return benchlib.parse_args(list(argv), self.WORKLOADS)

    def rejects(self, *argv):
        with contextlib.redirect_stderr(io.StringIO()), self.assertRaises(SystemExit) as cm:
            self.parse(*argv)
        self.assertEqual(cm.exception.code, 2)

    def test_valid_arguments(self):
        a = self.parse("--workload", "wide", "--seed", "18446744073709551615",
                       "--seconds", "30", "--trace", "1")
        self.assertEqual((a.workload, a.seed, a.seconds, a.trace),
                         ("wide", 2**64 - 1, 30, 1))
        self.assertEqual(self.parse("--workload", "narrow", "--seed", "0",
                                    "--seconds", "1", "--trace", "0").seed, 0)

    def test_malformed_seeds_are_rejected(self):
        for seed in ("-1", "1.5", "abc", "", "18446744073709551616", "0x10"):
            self.rejects("--workload", "narrow", "--seed", seed, "--seconds", "5",
                         "--trace", "0")

    def test_missing_or_invalid_arguments_are_rejected(self):
        self.rejects("--workload", "narrow", "--seconds", "5", "--trace", "0")
        self.rejects("--workload", "other", "--seed", "1", "--seconds", "5", "--trace", "0")
        self.rejects("--workload", "narrow", "--seed", "1", "--seconds", "0", "--trace", "0")
        self.rejects("--workload", "narrow", "--seed", "1", "--seconds", "5", "--trace", "2")


if __name__ == "__main__":
    unittest.main()
