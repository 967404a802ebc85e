"""Tests of the benchmark's own logic.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perflib  # noqa: E402
import run  # noqa: E402


def span(name, tid, start, end, key="", cat="lib"):
    return {"name": name, "cat": cat, "key": key, "tid": tid,
            "start": start, "end": end}


class TailPercentileTest(unittest.TestCase):
    def test_hundred_samples_give_p90(self):
        value, pct, n = perflib.tail_percentile(range(1, 101))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_exactly_ten_samples_lie_beyond(self):
        samples = [5.0] * 30 + list(range(100, 120))
        value, _, _ = perflib.tail_percentile(samples)
        self.assertEqual(sum(1 for s in samples if s > value), 10)

    def test_thousand_samples_give_p99(self):
        _, pct, _ = perflib.tail_percentile(range(1000))
        self.assertEqual(pct, 99.0)

    def test_order_does_not_matter(self):
        a = perflib.tail_percentile([3, 1, 2] * 10)
        b = perflib.tail_percentile(sorted([3, 1, 2] * 10))
        self.assertEqual(a, b)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(perflib.tail_percentile([4, 9, 1]), (9, None, 3))
        self.assertEqual(perflib.tail_percentile(range(10))[1], None)
        self.assertIsNotNone(perflib.tail_percentile(range(11))[1])


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans_subtract_children(self):
        spans = [
            span("bench.rep", 0, 0.0, 10.0, cat="bench"),
            span("vm.trace", 0, 1.0, 4.0, cat="bench"),
            span("cache.compute", 0, 1.5, 3.5, key="trace:mcf:ref:9"),
            span("core.tag", 0, 5.0, 9.0, cat="bench"),
            span("cache.compute", 0, 5.5, 8.5, key="tagged:mcf:9"),
            # The tagged build looks up the analysis: a nested child.
            span("cache.wait", 0, 6.0, 6.5),
        ]
        st = perflib.self_times(spans, main_tid=0)
        self.assertAlmostEqual(st["other"], 3.0)  # 10 - 3 - 4
        self.assertAlmostEqual(st["vm.trace"], 3.0)  # span + compute
        self.assertAlmostEqual(st["core.tag"], 3.5)  # 4 minus the wait
        self.assertAlmostEqual(st["cache.wait"], 0.5)
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span("cpu.run", 0, 0.0, 10.0, cat="bench"),
            span("cache.wait", 0, 1.0, 5.0),
            span("cache.wait", 0, 1.0, 5.0),
        ]
        st = perflib.self_times(spans, main_tid=0)
        self.assertAlmostEqual(st["cpu.run"], 6.0)

    def test_worker_tasks_inherit_the_dispatching_span(self):
        spans = [
            span("bench.rep", 0, 0.0, 10.0, cat="bench"),
            span("bench.simulate", 0, 2.0, 10.0, cat="bench"),
            # The caller is a pool lane too.
            span("pool.task", 0, 2.0, 8.0),
            span("cache.wait", 0, 2.0, 2.1),
            span("pool.task", 1, 2.0, 9.0),
            span("cache.wait", 1, 2.0, 2.5),
        ]
        st = perflib.self_times(spans, main_tid=0)
        self.assertAlmostEqual(st["cpu.run"], 5.9 + 6.5)
        self.assertAlmostEqual(st["cache.wait"], 0.6)
        # Main thread: rep minus simulate (2) + simulate's wait (2).
        self.assertAlmostEqual(st["other"], 4.0)

    def test_cache_compute_is_charged_by_key(self):
        for key, layer in [("trace:a:train:5", "vm.trace"),
                           ("analysis:a:5", "core.analyze"),
                           ("tagged:a:5", "core.tag"),
                           ("warm:a:ref", "sampled.warm"),
                           ("warm:tagged:a", "sampled.warm")]:
            self.assertEqual(perflib.span_layer("cache.compute", key), layer)
        self.assertIs(perflib.span_layer("cache.compute", "x"),
                      perflib.INHERIT)
        self.assertEqual(perflib.span_layer("never.seen"), perflib.OTHER)

    def test_busy_time_merges_nested_spans_per_thread(self):
        spans = [span("cache.compute", 0, 0.0, 4.0),
                 span("cache.compute", 0, 1.0, 2.0),
                 span("cache.compute", 1, 1.0, 2.0)]
        self.assertAlmostEqual(perflib.busy_time(spans, "cache.compute"),
                               5.0)

    def test_chrome_events_convert(self):
        events = [
            {"ph": "X", "name": "cpu.run", "cat": "bench", "tid": 3,
             "ts": 1e6, "dur": 5e5},
            {"ph": "b", "name": "pool.queue_wait", "id": 7, "ts": 0},
            {"ph": "e", "name": "pool.queue_wait", "id": 7, "ts": 2e6},
        ]
        (sp,) = perflib.complete_spans(events)
        self.assertEqual((sp["start"], sp["end"], sp["tid"]), (1.0, 1.5, 3))
        self.assertAlmostEqual(
            perflib.async_durations(events, "pool.queue_wait"), 2.0)


class OutputCheckTest(unittest.TestCase):
    def reference(self):
        with open(os.path.join(HERE, "reference", "long-mcf.json")) as f:
            return json.load(f)["outputs"]

    def test_reference_matches_itself(self):
        ref = self.reference()
        self.assertEqual(perflib.check_outputs(ref, json.loads(
            json.dumps(ref))), [])

    def test_tampered_reference_is_rejected(self):
        outputs = self.reference()
        tampered = json.loads(json.dumps(outputs))
        tampered["mcf/crisp"]["cycles"] += 1
        self.assertEqual(perflib.check_outputs(tampered, outputs),
                         ["mcf/crisp"])

    def test_missing_and_extra_outputs_are_rejected(self):
        ref = {"a/ooo": {"cycles": 1}, "b/ooo": {"cycles": 2}}
        out = {"a/ooo": {"cycles": 1}, "c/ooo": {"cycles": 3}}
        self.assertEqual(perflib.check_outputs(ref, out),
                         ["b/ooo", "c/ooo"])

    def test_exact_ipc_strings_compare_digit_for_digit(self):
        ref = {"a/ibda-1K": {"ipc": "0.20682574599978323"}}
        out = {"a/ibda-1K": {"ipc": "0.20682574599978324"}}
        self.assertEqual(perflib.check_outputs(ref, out), ["a/ibda-1K"])

    def test_every_workload_has_a_reference(self):
        for name in run.WORKLOADS:
            path = os.path.join(HERE, "reference", name + ".json")
            with open(path) as f:
                outputs = json.load(f)["outputs"]
            self.assertEqual(len(outputs), run.expected_jobs(
                run.WORKLOADS[name]) // (2 if name == "serve-sweep" else 1))

    def test_model_metrics_from_reference(self):
        with open(os.path.join(HERE, "reference", "fig7-batch.json")) as f:
            m = perflib.model_metrics(json.load(f)["outputs"])
        # bench/fig07_ipc prints the geomeans as +3.8% and +1.7%.
        self.assertEqual(round(m["model.crisp_gain_geomean_pct"], 1), 3.8)
        self.assertEqual(round(m["model.ibda1k_gain_geomean_pct"], 1), 1.7)


class VerdictTest(unittest.TestCase):
    base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_within_bound(self):
        new = [v * 1.03 for v in self.base]
        v, _ = perflib.verdict(self.base, new, "lower", 0.1)
        self.assertEqual(v, perflib.WITHIN)

    def test_worse_beyond_bound(self):
        new = [v * 1.2 for v in self.base]
        v, d = perflib.verdict(self.base, new, "lower", 0.1)
        self.assertEqual(v, perflib.WORSE)
        self.assertEqual(d["paired_wins"], 0.0)

    def test_better_needs_paired_wins_and_a_gap_beyond_spread(self):
        new = [v * 0.8 for v in self.base]
        v, d = perflib.verdict(self.base, new, "lower", 0.1)
        self.assertEqual(v, perflib.BETTER)
        self.assertEqual(d["paired_wins"], 1.0)
        # Same medians, but the change loses half the pairs.
        mixed = [v * (0.8 if i % 2 else 1.05)
                 for i, v in enumerate(self.base)]
        v, _ = perflib.verdict(self.base, mixed, "lower", 0.5)
        self.assertEqual(v, perflib.WITHIN)

    def test_higher_is_better_direction(self):
        new = [v * 1.3 for v in self.base]
        v, d = perflib.verdict(self.base, new, "higher", 0.1)
        self.assertEqual(v, perflib.BETTER)
        self.assertGreater(d["change"], 0)

    def test_unresolved_when_spread_exceeds_bound(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        v, _ = perflib.verdict(self.base, noisy, "lower", 0.1)
        self.assertEqual(v, perflib.UNRESOLVED)

    def test_domination_resolves_a_noisy_pair(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        faster = [v / 10 for v in noisy]
        v, _ = perflib.verdict(noisy, faster, "lower", 0.1)
        self.assertEqual(v, perflib.BETTER)

    def test_per_layer_metric_uses_parent_spread(self):
        new = [v * 1.01 for v in self.base]
        v, _ = perflib.verdict(self.base, new, "lower", None)
        self.assertEqual(v, perflib.WITHIN)

    def test_hosts(self):
        a = {"nproc": 4, "cpu_model": "x", "compiler": "GCC 12",
             "build_type": "Release", "commit": "1"}
        self.assertTrue(perflib.same_host(a, dict(a, commit="2")))
        self.assertFalse(perflib.same_host(a, dict(a, nproc=8)))


class PlanTest(unittest.TestCase):
    def test_seed_permutes_order_never_the_set(self):
        for name in run.WORKLOADS:
            a, b = run.plan(name, 1, 0), run.plan(name, 2, 0)
            self.assertEqual(sorted(a["workloads"]),
                             sorted(run.WORKLOADS[name]["workloads"]))
            self.assertEqual(sorted(a["variants"]), sorted(b["variants"]))
            self.assertEqual(a, run.plan(name, 1, 0))
        orders = {tuple(run.plan("fig7-batch", s, 0)["workloads"])
                  for s in range(5)}
        self.assertGreater(len(orders), 1)

    def test_evaluate_all_keeps_ooo_and_crisp_first(self):
        for seed in range(10):
            v = run.plan("fig7-batch", seed, 3)["variants"]
            self.assertEqual(v[:2], ["ooo", "crisp"])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_what_run_reports(self):
        with open(os.path.join(os.path.dirname(HERE),
                               "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.LAYER_UNITS)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
