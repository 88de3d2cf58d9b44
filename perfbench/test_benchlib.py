"""Tests of the benchmark's own arithmetic and metric catalog.

    python3 perfbench/test_benchlib.py
"""

import json
import math
import os
import statistics
import unittest

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        self.assertEqual(benchlib.percentile(values, 0.50), 50)
        self.assertEqual(benchlib.percentile(values, 0.99), 99)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)
        self.assertEqual(benchlib.percentile(values, 0.0), 1)
        # rank ceil(0.5 * 3) = 2
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 0.5), 2.0)
        self.assertEqual(benchlib.percentile([7.0], 0.99), 7.0)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 0.5)

    def test_failures_count_as_missing_every_limit(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(benchlib.percentile(values, 0.98), 1.0)
        self.assertTrue(math.isinf(benchlib.percentile(values, 0.99)))

    def test_samples_beyond_p99(self):
        self.assertEqual(benchlib.samples_beyond(1000, 0.99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 0.99), 9)
        self.assertEqual(benchlib.samples_beyond(2400, 0.99), 24)
        self.assertEqual(benchlib.samples_beyond(1, 0.99), 0)

    def test_spread_uses_statistics_quantiles(self):
        values = [10.0, 12.0, 9.0, 11.0, 30.0, 10.5, 9.5, 10.2, 11.1, 9.9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        s = benchlib.spread(values)
        self.assertEqual((s["q1"], s["median"], s["q3"]), (q1, q2, q3))
        self.assertAlmostEqual(s["iqr_frac"], (q3 - q1) / q2)
        self.assertEqual(benchlib.spread([4.0])["median"], 4.0)


class OpenLoopTest(unittest.TestCase):
    def test_due_time_latency_and_lateness(self):
        # Deltas due every 100 ms. Delta 0 overruns to 250 ms, so delta 1
        # starts late because of queueing, not because of the generator;
        # delta 2 starts 10 ms after both its due time and the previous
        # verdict, which is generator lateness.
        due = [0.0, 0.1, 0.2, 0.3]
        begin = [0.0, 0.25, 0.31, 0.3]
        end = [0.25, 0.30, 0.35, 0.32]
        t = benchlib.open_loop(due, begin, end)
        for got, want in zip(t["latency"], [0.25, 0.20, 0.15, 0.02]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(t["queue_wait"], [0.0, 0.15, 0.11, 0.0]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(t["busy"], [0.25, 0.05, 0.04, 0.02]):
            self.assertAlmostEqual(got, want)
        for got, want in zip(t["late"], [0.0, 0.0, 0.01, 0.0]):
            self.assertAlmostEqual(got, want)

    def test_latency_counts_the_stall_for_every_later_delta(self):
        # One 1 s stall at the start delays all nine deltas queued behind it;
        # timing from send time would hide that.
        due = [0.1 * i for i in range(10)]
        begin, end, now = [], [], 0.0
        for i, d in enumerate(due):
            start = max(d, now)
            now = start + (1.0 if i == 0 else 0.01)
            begin.append(start)
            end.append(now)
        t = benchlib.open_loop(due, begin, end)
        self.assertTrue(all(lat > 0.1 for lat in t["latency"]))
        self.assertTrue(all(b == 0.0 for b in t["late"]))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_merged_children(self):
        spans = [
            ["link", 0.0, 10.0, -1, 0],
            ["a", 1.0, 3.0, 0, 0],
            ["b", 2.0, 5.0, 0, 0],    # overlaps a: [1, 5] counts once
            ["c", 8.0, 12.0, 0, 0],   # clipped to the parent: [8, 10]
            ["d", 2.5, 2.75, 2, 0],   # grandchild, covered inside b only
        ]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 0.25)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(selfs[4], 0.25)
        self.assertAlmostEqual(benchlib.self_total(spans, "link"), 4.0)
        self.assertAlmostEqual(benchlib.span_total(spans, "a"), 2.0)

    def test_concat_rebases_parents(self):
        one = [["apply", 0.0, 1.0, -1, 0], ["cmp", 0.2, 0.6, 0, 3]]
        two = [["apply", 2.0, 3.0, -1, 0], ["cmp", 2.1, 2.2, 0, 1]]
        joined = benchlib.concat_spans([one, two])
        self.assertEqual([s[3] for s in joined], [-1, 0, -1, 2])
        self.assertAlmostEqual(benchlib.self_total(joined, "apply"), 1.5)


def _pass(stream, n, failed=0, traced=False):
    due = [0.01 * i for i in range(n)]
    return {
        "stream": stream, "traced": traced, "setup_s": 1.0 + stream,
        "init_s": 1.0, "links_match": True, "smc_pairs": 5,
        "reference_smc_pairs": 5, "pool_misses": 0,
        "costs": {"encryptions": 1, "decryptions": 1, "homomorphic_adds": 1,
                  "scalar_muls": 1, "packed_pairs": 5, "retries": 0},
        "due": due, "begin": due, "end": [d + 0.002 for d in due],
        "status": [0] * (n - failed) + [2] * failed,
        "delta_quarantined": [0] * n, "counters": {}, "gauges": {},
        "histogram_sums": {"smc.batch_seconds": 0.5}, "spans": [],
    }


class ServeSummaryTest(unittest.TestCase):
    def test_pools_streams_and_counts_failures(self):
        raw = {"passes": [_pass(0, 600), _pass(1, 600, failed=3)],
               "peak_rss_mb": 20.0}
        s = benchlib.summarize_serve(raw, trace=False)
        self.assertEqual(s["attempted"], 1200)
        self.assertEqual(s["failed"], 3)
        self.assertEqual(s["problems"], [])
        self.assertAlmostEqual(s["record"]["open_loop"]["delta_p50_ms"], 2.0)
        self.assertAlmostEqual(s["record"]["open_loop"]["capacity_dps"],
                               500.0)
        # Each stream's link time is its 600 deltas x 2 ms of Apply.
        self.assertAlmostEqual(s["end_to_end"]["link_s"], 1.2)
        self.assertAlmostEqual(s["end_to_end"]["smc_pairs_per_s"], 10.0)
        self.assertEqual(s["end_to_end"]["setup_s"], 1.5)
        self.assertEqual(sorted(s["end_to_end"]), sorted(benchlib.END_TO_END))

    def test_too_few_samples_beyond_p99_fails(self):
        raw = {"passes": [_pass(0, 500)], "peak_rss_mb": 20.0}
        s = benchlib.summarize_serve(raw, trace=False)
        self.assertTrue(any("beyond p99" in p for p in s["problems"]))


class CatalogTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_workloads_match(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(sorted(names), sorted(benchlib.EXERCISED))

    def test_every_workload_emits_every_declared_metric(self):
        for section, names in (("end_to_end", benchlib.END_TO_END),
                               ("per_layer", benchlib.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.bench[section]}
            self.assertEqual(len(names), len(set(names)), section)
            self.assertEqual(set(declared), set(names), section)
            for name, unit in declared.items():
                self.assertEqual(benchlib.UNITS[name], unit, name)
        for w, exercised in benchlib.EXERCISED.items():
            self.assertTrue(set(exercised) <= set(benchlib.PER_LAYER), w)
            full = benchlib.complete_per_layer(
                w, {name: 1.0 for name in exercised})
            self.assertEqual(sorted(full), sorted(benchlib.PER_LAYER), w)
            self.assertEqual(sum(full.values()), len(exercised), w)

    def test_unexercised_layers_read_zero(self):
        full = benchlib.complete_per_layer("paper-inproc", {
            name: 1.0 for name in benchlib.EXERCISED["paper-inproc"]})
        self.assertEqual(full["serve.delta_p99_ms"], 0.0)
        self.assertEqual(full["net.wire_bytes_per_pair"], 1.0)
        full = benchlib.complete_per_layer("serve-churn", {
            name: 1.0 for name in benchlib.EXERCISED["serve-churn"]})
        self.assertEqual(full["data.read_s"], 0.0)
        self.assertEqual(full["net.wire_bytes_per_pair"], 0.0)
        self.assertEqual(full["serve.delta_p99_ms"], 1.0)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
