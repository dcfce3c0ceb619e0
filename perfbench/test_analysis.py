"""Tests of the benchmark's own arithmetic and metric table.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import analysis  # noqa: E402
from analysis import Span  # noqa: E402

MS = 1_000_000  # ns per ms
NAMES = [m["name"] for m in analysis.load_benchmark()["per_layer"]]


def span(id_, parent, start_ms, end_ms, name, thread=1, op=1, **tags):
    return Span(id_, parent, op, thread, int(start_ms * MS), int(end_ms * MS), name,
                {k: str(v) for k, v in tags.items()})


class TailRule(unittest.TestCase):
    def test_percentile_interpolates(self):
        self.assertEqual(analysis.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(analysis.percentile([5], 99), 5)

    def test_ten_samples_beyond_is_enough(self):
        values = list(range(100))
        value, beyond = analysis.tail(values, 90)
        self.assertEqual(beyond, 10)
        self.assertGreater(value, 89)

    def test_fewer_than_ten_beyond_is_refused(self):
        with self.assertRaises(ValueError):
            analysis.tail(list(range(100)), 91)
        self.assertEqual(analysis.tail(list(range(39)), 75)[1], 10)
        with self.assertRaises(ValueError):
            analysis.tail(list(range(37)), 75)

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 50 + [2.0] * 5
        with self.assertRaises(ValueError):
            analysis.tail(values, 75)

    def test_end_to_end_reports_configured_tail(self):
        result = {"workload": "train_dist", "op_ms": [float(i) for i in range(200)],
                  "work": 1000.0, "window_s": 2.0, "setup_s": [3.0, 1.0, 2.0],
                  "peak_rss_mb": 50.0, "work_unit": "samples"}
        metrics, note = analysis.end_to_end(result)
        self.assertEqual(metrics["throughput_per_s"], 500.0)
        self.assertEqual(metrics["latency_p50_ms"], 99.5)
        self.assertAlmostEqual(metrics["latency_tail_ms"],
                               analysis.percentile(result["op_ms"],
                                                   analysis.TAIL_PERCENTILE["train_dist"]))
        self.assertEqual(metrics["setup_s"], 2.0)
        self.assertIn("beyond", note)


class SelfTimeAndSpanTree(unittest.TestCase):
    # Root on thread 1 with one child on its own thread and two children
    # that overlap on threads 2 and 3; one grandchild under B on thread 2.
    OP = [
        span(1, 0, 0, 100, "root"),
        span(2, 1, 10, 30, "a"),
        span(3, 1, 40, 80, "b", thread=2),
        span(4, 1, 50, 90, "c", thread=3),
        span(5, 3, 45, 55, "d", thread=2),
    ]

    def test_self_time_subtracts_covered_interval_once(self):
        st = analysis.self_times(self.OP)
        self.assertAlmostEqual(st[1], 100 - 20 - 50)  # children cover [10,30] and [40,90]
        self.assertAlmostEqual(st[2], 20)
        self.assertAlmostEqual(st[3], 40 - 10)        # d covers [45,55]
        self.assertAlmostEqual(st[4], 40)
        self.assertAlmostEqual(st[5], 10)

    def test_unaccounted_is_root_self_time_on_its_thread(self):
        root, unaccounted = analysis.check_op(self.OP)
        self.assertEqual(root.id, 1)
        # On thread 1 only a runs inside the root: 100 - 20.
        self.assertAlmostEqual(unaccounted, 80)

    def test_single_thread_self_times_add_up_to_end_to_end(self):
        op = [span(1, 0, 0, 10, "step"), span(2, 1, 1, 4, "fwd"), span(3, 1, 4, 9, "bwd"),
              span(4, 3, 5, 6, "hook")]
        root, unaccounted = analysis.check_op(op)
        st = analysis.self_times(op)
        self.assertAlmostEqual(unaccounted, 2)  # [0,1) + [9,10)
        self.assertAlmostEqual(sum(st.values()), analysis.dur_ms(root))
        self.assertAlmostEqual(st[2] + st[3] + st[4] + unaccounted, 10)

    def test_operation_needs_one_root(self):
        with self.assertRaises(ValueError):
            analysis.check_op([span(1, 0, 0, 1, "x"), span(2, 0, 0, 1, "y")])

    def test_overlapping_siblings_on_one_thread_fail(self):
        op = [span(1, 0, 0, 10, "step"), span(2, 1, 1, 6, "fwd"), span(3, 1, 4, 9, "bwd")]
        with self.assertRaisesRegex(ValueError, "overlap"):
            analysis.check_op(op)

    def test_overlapping_siblings_on_two_threads_pass(self):
        op = [span(1, 0, 0, 10, "job"), span(2, 1, 1, 6, "task", thread=2),
              span(3, 1, 4, 9, "task", thread=3)]
        self.assertAlmostEqual(analysis.check_op(op)[1], 10)

    def test_child_outliving_its_parent_fails(self):
        op = [span(1, 0, 0, 10, "job"), span(2, 1, 2, 11, "task", thread=2)]
        with self.assertRaisesRegex(ValueError, "outside its parent"):
            analysis.check_op(op)

    def test_parent_outside_the_operation_fails(self):
        op = [span(1, 0, 0, 10, "job"), span(2, 7, 2, 3, "task")]
        with self.assertRaisesRegex(ValueError, "not in the operation"):
            analysis.check_op(op)

    def test_cycle_fails(self):
        op = [span(1, 0, 0, 10, "job"), span(2, 3, 2, 3, "x"), span(3, 2, 2, 3, "y")]
        with self.assertRaisesRegex(ValueError, "cycle"):
            analysis.check_op(op)


class PerLayer(unittest.TestCase):
    # One Table V job: builder, load, map and reduce on the caller's thread,
    # loads and reduce tasks on two engine workers.
    JOB = [
        span(1, 0, 0, 100, "batch.job"),
        span(2, 1, 0, 30, "pipeline.builder_ctor"),
        span(3, 1, 30, 50, "mapred.load"),
        span(4, 3, 30, 45, "h5lite.load_granule", thread=2),
        span(5, 3, 31, 49, "h5lite.load_granule", thread=3),
        span(6, 1, 50, 51, "mapred.map"),
        span(7, 1, 51, 99, "mapred.reduce"),
        span(8, 7, 51, 90, "mapred.reduce_task", thread=2),
        span(9, 7, 52, 99, "mapred.reduce_task", thread=3),
        span(10, 8, 51, 60, "atl03.preprocess", thread=2),
    ]
    JOB_RESULT = {"workload": "batch_freeboard", "op_ms": [100.0], "untraced_op_ms": [98.0],
                  "window_s": 1.0, "counters": {"mapred.workers": 2, "resample.segments": 10,
                                                "label.labeled": 9}}

    def test_batch_job_decomposition_and_idle(self):
        out = analysis.per_layer(self.JOB_RESULT, self.JOB, 1.5, NAMES)
        self.assertAlmostEqual(out["mapred.unaccounted_ms"], 1.0)  # [99,100)
        self.assertAlmostEqual(out["mapred.reduce_idle_ms"], 2 * 48 - (39 + 47))
        self.assertAlmostEqual(out["h5lite.load_granule_ms"], (15 + 18) / 2)
        self.assertAlmostEqual(out["pipeline.builder_ctor_ms"], 30)
        self.assertAlmostEqual(out["label.labeled_ratio"], 0.9)
        self.assertAlmostEqual(out["trace.overhead_pct"], 100 * 2 / 98)
        self.assertEqual(out["nn.forward_ms"], 0.0)  # layer not exercised
        self.assertEqual(out["datagen_s"], 1.5)

    def test_a_bad_span_tree_fails_the_run(self):
        spans = list(self.JOB)
        spans[3] = span(4, 3, 30, 55, "h5lite.load_granule", thread=2)  # outlives the load
        with self.assertRaises(ValueError):
            analysis.per_layer(self.JOB_RESULT, spans, 1.5, NAMES)

    def test_rank_skew_pairs_steps_across_ranks(self):
        spans = [
            span(1, 0, 0, 10, "dist.step", op=1, rank=0, step=0),
            span(2, 1, 0, 4, "nn.forward", op=1),
            span(3, 0, 0, 10, "dist.step", thread=2, op=2, rank=1, step=0),
            span(4, 3, 0, 5, "nn.forward", thread=2, op=2),
        ]
        result = {"workload": "train_dist", "op_ms": [10.0], "window_s": 1.0,
                  "counters": {"dist.steps": 1, "dist.allreduce_floats": 64}}
        out = analysis.per_layer(result, spans, 0.0, NAMES)
        self.assertAlmostEqual(out["dist.rank_skew"], 0.2)
        self.assertAlmostEqual(out["dist.unaccounted_ms"], (6 + 5) / 2)
        self.assertEqual(out["dist.allreduce_floats_per_step"], 64)

    def test_serve_ratios_by_source(self):
        spans = [
            span(1, 0, 0, 1, "serve.request", op=1, source="ram", queue_wait_ms=0),
            span(2, 0, 0, 4, "serve.request", op=2, source="disk", queue_wait_ms=1),
            span(3, 0, 0, 30, "serve.request", op=3, source="build", queue_wait_ms=3),
            span(4, 0, 0, 2, "serve.request", op=4, source="ram", queue_wait_ms=0),
        ]
        result = {"workload": "serve_zipf", "op_ms": [1.0, 4.0, 30.0, 2.0], "window_s": 1.0,
                  "counters": {"serve.resumed_builds": 0}}
        out = analysis.per_layer(result, spans, 0.0, NAMES)
        self.assertEqual(out["serve.ram_hit_ratio"], 0.5)
        self.assertEqual(out["serve.full_build_ratio"], 0.25)
        self.assertEqual(out["serve.ram_ms"], 1.5)
        self.assertEqual(out["serve.queue_wait_ms"], 2.0)


class MetricTable(unittest.TestCase):
    def setUp(self):
        self.bench = analysis.load_benchmark()
        self.targets = analysis.load_targets()

    def test_every_per_layer_metric_names_its_target(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        e2e = {m["name"] for m in self.bench["end_to_end"]}
        for metric in self.bench["per_layer"]:
            name = metric["name"]
            self.assertIn(name, self.targets, name)
            entry = self.targets[name]
            self.assertTrue(entry["measured_in"], name)
            self.assertTrue(set(entry["measured_in"]) <= workloads, name)
            if not entry["moves"]:
                self.assertTrue(entry.get("reported_only"), name + " names no target")
            for target in entry["moves"]:
                workload, _, e2e_metric = target.partition(":")
                self.assertIn(workload, workloads, name)
                self.assertIn(e2e_metric, e2e, name)

    def test_every_workload_has_a_tail_percentile(self):
        for w in self.bench["workloads"]:
            self.assertIn(w["name"], analysis.TAIL_PERCENTILE)


if __name__ == "__main__":
    unittest.main()
