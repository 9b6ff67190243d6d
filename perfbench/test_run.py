#!/usr/bin/env python3
"""Tests for the benchmark's own logic in run.py.

    python3 perfbench/test_run.py                      # logic only, < 1 s
    PERFBENCH_SMOKE=1 python3 perfbench/test_run.py    # + every workload briefly
"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def rung(qps, p99_us, ok_frac=1.0, achieved_frac=1.0):
    return {"qps": qps, "p99_us": p99_us, "ok_frac": ok_frac,
            "achieved_frac": achieved_frac}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(values, 0.50), 50)
        self.assertEqual(run.percentile(values, 0.99), 99)
        self.assertEqual(run.percentile(values, 1.0), 100)
        self.assertEqual(run.percentile(list(reversed(values)), 0.99), 99)

    def test_small_and_empty(self):
        self.assertEqual(run.percentile([7.0], 0.99), 7.0)
        self.assertEqual(run.percentile([3.0, 1.0], 0.5), 1.0)
        self.assertTrue(math.isnan(run.percentile([], 0.5)))

    def test_failures_count_as_missing_the_slo(self):
        # 2 of 100 requests failed: they enter as +inf, so the p99 is inf.
        window = run.summarize_window(
            {"sent": 100, "ok": 98, "rejected": 2, "shed": 0, "latency_us": [10.0] * 98,
             "lag_us": [1.0] * 100}, 100.0, 1.0)
        self.assertEqual(window["p50_us"], 10.0)
        self.assertTrue(math.isinf(window["p99_us"]))
        self.assertAlmostEqual(window["ok_frac"], 0.98)

    def test_achieved_rate_from_backlog_growth(self):
        # Served at 0.8x the offered rate over 1 s: the wait grows by
        # (1/0.8 - 1) s per second of arrival time.
        latencies = [50.0 + 0.25e6 * i / 1000 for i in range(1000)]
        self.assertAlmostEqual(run.achieved_frac(latencies, 1.0), 0.8, places=2)

    def test_warm_up_is_not_a_shortfall(self):
        # The queue builds to a steady 3 ms in the first quarter, then holds.
        latencies = [3000.0 * min(1.0, i / 200) for i in range(1000)]
        self.assertEqual(run.achieved_frac(latencies, 0.2), 1.0)

    def test_steady_latency_is_not_a_shortfall(self):
        # 5 ms latency throughout a 0.1 s window: no backlog growth.
        window = run.summarize_window(
            {"sent": 1000, "ok": 1000, "rejected": 0, "shed": 0,
             "latency_us": [5000.0] * 1000,
             "lag_us": [0.0] * 1000}, 10000.0, 0.1)
        self.assertEqual(window["achieved_frac"], 1.0)


class MedianOverWindowsTest(unittest.TestCase):
    def test_median_of_each_windows_percentile(self):
        windows = [{"p99_us": 100.0}, {"p99_us": 9000.0}, {"p99_us": 120.0}]
        self.assertEqual(run.median_of_windows(windows, "p99_us"), 120.0)

    def test_even_count_and_nan(self):
        self.assertEqual(run.median([1.0, 2.0, 3.0, 4.0]), 2.5)
        self.assertEqual(run.median([math.nan, 5.0]), 5.0)
        self.assertTrue(math.isnan(run.median([])))

    def test_window_median_of_raw_samples(self):
        windows = [{"server_us": [1.0, 2.0, 3.0]}, {"server_us": [10.0, 20.0, 30.0]},
                   {"server_us": [4.0, 5.0, 6.0]}]
        self.assertEqual(run.window_median(windows, "server_us", 0.5), 5.0)


class KneeTest(unittest.TestCase):
    SLO = 1000.0

    def test_interpolates_the_slo_crossing(self):
        rungs = [rung(1000, 200.0), rung(2000, 600.0), rung(3000, 1400.0)]
        # 600 -> 1400 crosses 1000 halfway between 2000 and 3000.
        self.assertAlmostEqual(run.interpolate_knee(rungs, self.SLO), 2500.0)

    def test_achieved_rate_crossing(self):
        rungs = [rung(1000, 200.0), rung(2000, 300.0, achieved_frac=0.96)]
        # 1.0 -> 0.96 crosses 0.98 halfway.
        self.assertAlmostEqual(run.interpolate_knee(rungs, self.SLO), 1500.0)

    def test_lowest_crossing_wins(self):
        rungs = [rung(1000, 0.0), rung(2000, 2000.0, achieved_frac=0.90)]
        # p99 crosses at 1500, achieved at 1200.
        self.assertAlmostEqual(run.interpolate_knee(rungs, self.SLO), 1200.0)

    def test_infinite_p99_crosses_at_the_failing_rung(self):
        rungs = [rung(1000, 200.0), rung(2000, math.inf, ok_frac=0.5)]
        self.assertAlmostEqual(run.interpolate_knee(rungs, self.SLO), 1000.0 + 1000.0 *
                               (1.0 - run.KNEE_OK_FRAC) / 0.5)

    def test_all_pass_and_first_fails(self):
        self.assertEqual(run.interpolate_knee([rung(1000, 1.0), rung(2000, 2.0)],
                                              self.SLO), 2000)
        # Crossed from the idle rung at 0/s: p99 0 -> 4000 crosses 1000 at 1/4.
        self.assertAlmostEqual(run.interpolate_knee([rung(1000, 4000.0)], self.SLO), 250.0)

    def test_stops_at_first_failing_rung(self):
        rungs = [rung(1000, 200.0), rung(2000, 1800.0), rung(3000, 300.0)]
        self.assertAlmostEqual(run.interpolate_knee(rungs, self.SLO), 1500.0)


class LagValidityTest(unittest.TestCase):
    def test_share_of_the_slo(self):
        slo = 20000.0
        self.assertTrue(run.window_is_valid(run.LAG_SHARE * slo, slo))
        self.assertFalse(run.window_is_valid(run.LAG_SHARE * slo + 1.0, slo))
        self.assertTrue(run.window_is_valid(0.0, slo))

    def test_point_pools_its_windows_lags(self):
        slo = 20000.0
        late = run.LAG_SHARE * slo + 1.0
        # One window in six stalled: its own p99 is late, the point's is not.
        stalled = {"lag_us": [1.0] * 2450 + [late] * 50}
        calm = {"lag_us": [1.0] * 2500}
        self.assertFalse(run.window_is_valid(run.percentile(stalled["lag_us"], 0.99), slo))
        self.assertTrue(run.point_is_valid([stalled] + [calm] * 5, slo))
        # Late throughout: 2% of every window.
        self.assertFalse(run.point_is_valid([stalled] * 6, slo))

    def test_host_speed_rule(self):
        # Round i runs between probes i and i + 1; median probe 1000 us.
        steady, invalid = run.host_speed_check([1000.0, 1005.0, 1400.0, 998.0, 1002.0, 1001.0])
        self.assertEqual(steady, [True, False, False, True, True])
        self.assertEqual(invalid, [])
        # A move of exactly PROBE_SHARE is still steady.
        self.assertEqual(run.steady_rounds([1000.0, 1000.0 * (1 + run.PROBE_SHARE)]),
                         [True])

    def test_run_with_no_majority_of_steady_rounds_is_invalid(self):
        # The host sped up halfway: two of four rounds steady is not enough.
        steady, invalid = run.host_speed_check([1000.0, 1000.0, 1000.0, 600.0, 600.0])
        self.assertEqual(steady, [True, True, False, False])
        self.assertEqual(len(invalid), 1)

    def test_steal_share(self):
        # 50 of 1000 jiffies stolen: exactly the share, still valid.
        self.assertAlmostEqual(run.steal_share((10, 1000), (60, 2000)), run.STEAL_SHARE)
        self.assertEqual(run.steal_share((5, 100), (5, 100)), 0.0)

    def test_window_length_bounds_the_sample_count(self):
        for workload in run.WORKLOADS.values():
            for qps in [workload.get("lo_qps"), workload.get("hi_qps")]:
                if qps:
                    samples = qps * run.window_seconds(qps)
                    self.assertGreaterEqual(samples, 1000)  # >= 10 beyond p99
                    self.assertLess(samples, 10000)         # < 10 beyond p99.9


class SetupTest(unittest.TestCase):
    class FakeHarness:
        """Answers each `setup` with the next canned time, on 2 CPUs."""

        def __init__(self, times):
            self.times = iter(times)
            self.asked = []

        def ask(self, *words):
            self.asked.append(words)
            return {"setup_s": next(self.times), "cpus": 2, "simd": "avx2"}

    def test_pinned_rounds_take_the_median_of_round_means(self):
        # A cold set-up, then 3 rounds over a fast and a slow CPU.
        harness = self.FakeHarness([9.0, 1.0, 3.0, 1.0, 3.0, 1.0, 5.0])
        self.assertEqual(run.setup_seconds(harness, 3, True), (2.0, "avx2"))
        self.assertEqual([w[1:] for w in harness.asked[1:]], [(0,), (1,)] * 3)

    def test_unpinned_median_counts_every_set_up(self):
        harness = self.FakeHarness([9.0, 1.0, 2.0])
        self.assertEqual(run.setup_seconds(harness, 3, False), (2.0, "avx2"))


class MetricNameTest(unittest.TestCase):
    def test_charset(self):
        good = [{"name": "server.latency_us_p99_hi", "unit": "us"},
                {"name": "setup_s", "unit": "s"}, {"name": "x", "unit": "1/s"}]
        run.check_names(good)
        for name in ["", ".lead", "has space", "a" * 65, "ü"]:
            with self.assertRaises(run.BenchError):
                run.check_names([{"name": name, "unit": "s"}])
        with self.assertRaises(run.BenchError):
            run.check_names([{"name": "a", "unit": "s"}, {"name": "a", "unit": "s"}])
        with self.assertRaises(run.BenchError):
            run.check_names([{"name": "a", "unit": "micro seconds"}])

    def test_benchmark_json(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"]]
        self.assertIn("setup_s", names)
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        overhead = {m["name"] for m in spec["per_layer"]
                    if m["name"].startswith("trace.overhead_frac.")}
        self.assertEqual(overhead, {"trace.overhead_frac." + n for n in names})


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE") == "1",
                     "set PERFBENCH_SMOKE=1 to build and run every workload")
class SmokeTest(unittest.TestCase):
    def test_every_metric_printed(self):
        self.assertTrue(run.smoke(run.load_spec()))


if __name__ == "__main__":
    unittest.main()
