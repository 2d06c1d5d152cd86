"""Tests for the benchmark's statistics, naming rules and metric coverage.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest
from pathlib import Path

import run
import stats

ROOT = Path(__file__).resolve().parent.parent

# Every metric the benchmark's definition names, end to end and per layer.
NAMED_END_TO_END = [
    "setup_s", "run_s", "updates_per_s", "cost_reduction_pct",
    "cost_ratio_vs_fresh", "sim_converge_s", "control_mb", "peak_rss_mb",
]
CTRL_MSGS = ["token", "location_request", "location_response",
             "capacity_request", "capacity_response", "probe_timer"]
TASK_TYPES = ["hello", "init", "deliver", "timer", "apply", "shutdown",
              "result", "final", "adopt"]
NAMED_PER_LAYER = [
    "topology.build_s", "traffic.generate_s", "baselines.place_s", "core.bind_s",
    "core.evaluate_ns", "core.migration_delta_ns", "core.apply_migration_ns",
    "core.begin_pass_full_ns", "core.begin_pass_touched_ns", "core.reconcile_ns",
    "driver.passes", "driver.holds", "driver.migrations", "driver.useful_ratio",
    "util.exec.par_speedup",
    "traffic.next_batch_ns", "traffic.apply_ns_per_delta",
    "traffic.effective_delta_ratio", "traffic.max_queue_depth",
    "driver.fold_p50_ns", "driver.fold_p99_ns", "driver.trigger_p99_ns",
    "driver.fold_samples", "driver.trigger_samples",
    "driver.reopts", "driver.partial_reopts", "driver.deltas_per_reopt",
    "driver.reopt_s",
    "hypervisor.agent_s", "hypervisor.deliveries", "hypervisor.runtime_self_s",
    "hypervisor.token_encode_ns", "hypervisor.token_decode_ns",
    "hypervisor.token_bytes", "hypervisor.token_codec_share",
    "sim.messages", "sim.messages_lost",
    "hypervisor.remote_deliver_s", "hypervisor.remote_deliver_p50_us",
    "hypervisor.remote_deliver_p99_us", "hypervisor.remote_deliver_samples",
    "util.wire.frames", "util.wire.bytes",
    "hypervisor.pipelined_tasks", "hypervisor.max_inflight",
    "hypervisor.tasks_resent", "util.link.retransmits",
    "hypervisor.transport_overhead_s",
    "bench.trace_overhead_s", "bench.verify_s",
] + ["hypervisor.agent_s." + m for m in CTRL_MSGS] \
  + ["hypervisor.deliveries." + m for m in CTRL_MSGS] \
  + ["util.wire.frames." + t for t in TASK_TYPES] \
  + ["util.wire.bytes." + t for t in TASK_TYPES]


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 9.0, 2.0, 5.0, 8.0, 3.0, 6.0, 10.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertEqual(q2, statistics.median(values))

    def test_single_sample_quartiles(self):
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))


class TailPercentile(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(stats.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertAlmostEqual(stats.percentile([0.0, 10.0], 25), 2.5)
        self.assertEqual(stats.percentile(list(range(101)), 99), 99)

    def test_no_tail_below_twenty_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(19))))

    def test_highest_percentile_with_ten_beyond(self):
        for n, p in [(20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
                     (9999, 99), (10000, 99.9), (100000, 99.99)]:
            values = [float(i) for i in range(n)]
            got_p, value, count = stats.tail_percentile(values)
            self.assertEqual(got_p, p, "n=%d" % n)
            self.assertEqual(count, n)
            self.assertEqual(value, stats.percentile(values, p))
            self.assertGreaterEqual(stats.samples_beyond(n, got_p), 10)
            higher = [q for q in stats.TAIL_LADDER if float(q) > got_p]
            if higher:
                self.assertLess(stats.samples_beyond(n, min(higher)), 10)

    def test_describe_reports_count_and_tail(self):
        text = stats.describe([float(i) for i in range(1000)])
        self.assertIn("n=1000", text)
        self.assertIn("p99 ", text)
        self.assertIn("no tail", stats.describe([1.0, 2.0, 3.0]))


class Names(unittest.TestCase):
    def test_metric_name_rule(self):
        for good in ["run_s", "core.evaluate_ns", "util.wire.bytes.hello",
                     "a-b", "9lives", "x" * 64]:
            self.assertTrue(stats.valid_metric_name(good), good)
        for bad in ["", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                    "ünï", None]:
            self.assertFalse(stats.valid_metric_name(bad), bad)

    def test_unit_rule(self):
        for good in ["s", "ms", "1/s", "%", "count", "sim_s", "MB"]:
            self.assertTrue(stats.valid_unit(good), good)
        for bad in ["", "x" * 17, "per second"]:
            self.assertFalse(stats.valid_unit(bad), bad)


class Coverage(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.e2e, self.layers = run.declared_metrics()

    def test_declared_names_are_valid_and_unique(self):
        names = [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(stats.valid_metric_name(name), name)

    def test_every_named_metric_is_declared(self):
        self.assertEqual(sorted(self.e2e), sorted(NAMED_END_TO_END))
        missing = [n for n in NAMED_PER_LAYER if n not in self.layers]
        self.assertEqual(missing, [])

    def test_every_declared_metric_is_in_the_output(self):
        raw = {
            "attempted": 3, "failed": 0, "failures": [],
            "timing": {"setup_s": [1.0, 2.0, 3.0], "run_s": [2.0, 1.0, 3.0],
                       "updates_per_s": [5.0, 6.0, 7.0]},
            "exact": {k: [1.5, 1.5, 1.5] for k in run.DETERMINISTIC},
            "once": {"peak_rss_mb": 10.0, "verify_s": 0.5},
            "layers": {"core.evaluate_ns": {"value": 7.0, "unit": "ns",
                                            "computed": True}},
            "distributions": {"hypervisor.remote_deliver_us":
                              [float(i) for i in range(1000)]},
            "second_seed": {},
        }
        correct, attempted, failed, metrics, report = run.result_for(
            raw, False, self.e2e, self.layers)
        self.assertTrue(correct, report)
        self.assertEqual(sorted(metrics), sorted(self.e2e))
        self.assertEqual(metrics["run_s"]["value"], 2.0)
        correct, _, _, metrics, report = run.result_for(
            raw, True, self.e2e, self.layers)
        self.assertTrue(correct, report)
        self.assertEqual(sorted(metrics), sorted(self.layers))
        self.assertEqual(metrics["hypervisor.remote_deliver_samples"]["value"], 1000)
        self.assertEqual(metrics["hypervisor.remote_deliver_p99_us"]["value"],
                         stats.percentile(raw["distributions"]
                                          ["hypervisor.remote_deliver_us"], 99))
        self.assertTrue(any("core.evaluate_ns" in line and "computed" in line
                            for line in report))

    def test_repeat_mismatch_is_a_failure(self):
        raw = {
            "attempted": 2, "failed": 0, "failures": [],
            "timing": {"setup_s": [1.0, 1.0], "run_s": [1.0, 1.0],
                       "updates_per_s": [1.0, 1.0]},
            "exact": {k: [1.0, 1.0] for k in run.DETERMINISTIC},
            "once": {"peak_rss_mb": 1.0}, "layers": {}, "distributions": {},
            "second_seed": {},
        }
        raw["exact"]["control_mb"] = [1.0, 1.0000001]
        correct, _, failed, _, _ = run.result_for(raw, False, self.e2e, self.layers)
        self.assertFalse(correct)
        self.assertEqual(failed, 1)


if __name__ == "__main__":
    unittest.main()
