"""Self-test of the benchmark's arithmetic (perfbench/benchlib.py) and of
run.py's output check.

  python3 -m unittest discover -s perfbench/tests
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))

import benchlib  # noqa: E402
import run  # noqa: E402


def span(name, tid, begin_us, end_us):
    return [{"name": name, "ph": "B", "ts": begin_us, "tid": tid},
            {"name": name, "ph": "E", "ts": end_us, "tid": tid}]


class MedianAndQuartilesTest(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_median_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [7.0, 1.0, 4.0, 9.0, 3.0, 5.0, 8.0, 2.0, 6.0, 10.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        # Exclusive method on 1..10: positions 2.75, 5.5 and 8.25.
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_single_value_quartiles(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))


class SpanStatsTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # consume [0,100] > update [10,60] > retrain [20,50]; rank [70,90].
        events = (span("consume", 1, 0, 100)[:1]
                  + span("update", 1, 10, 60)[:1]
                  + span("retrain", 1, 20, 50)
                  + span("update", 1, 10, 60)[1:]
                  + span("rank", 1, 70, 90)
                  + span("consume", 1, 0, 100)[1:])
        stats = benchlib.span_stats(events)
        self.assertAlmostEqual(stats["consume"].total_s, 100e-6)
        self.assertAlmostEqual(stats["consume"].self_s, 30e-6)
        self.assertAlmostEqual(stats["update"].self_s, 20e-6)
        self.assertAlmostEqual(stats["retrain"].self_s, 30e-6)
        self.assertEqual(stats["rank"].count, 1)

    def test_repeated_spans_accumulate(self):
        events = span("rank", 1, 0, 10) + span("rank", 1, 20, 25)
        stats = benchlib.span_stats(events)
        self.assertEqual(stats["rank"].count, 2)
        self.assertAlmostEqual(stats["rank"].total_s, 15e-6)
        self.assertAlmostEqual(stats["rank"].self_s, 15e-6)

    def test_worker_thread_spans_nest_on_their_own_thread(self):
        # The consumer (tid 1) scores with two workers (tids 2, 3) whose
        # events interleave with its own. Worker spans are roots of their
        # threads: they are neither children of the consumer's span nor
        # each other's, and the consumer's wait stays in its self time.
        consume_b, consume_e = span("rank", 1, 0, 100)
        events = [consume_b,
                  {"name": "score", "ph": "B", "ts": 5, "tid": 2},
                  {"name": "score", "ph": "B", "ts": 6, "tid": 3},
                  {"name": "kernel", "ph": "B", "ts": 10, "tid": 2},
                  {"name": "score", "ph": "E", "ts": 60, "tid": 3},
                  {"name": "kernel", "ph": "E", "ts": 40, "tid": 2},
                  {"name": "score", "ph": "E", "ts": 80, "tid": 2},
                  consume_e]
        stats = benchlib.span_stats(events)
        self.assertAlmostEqual(stats["rank"].self_s, 100e-6)
        self.assertEqual(stats["score"].count, 2)
        self.assertAlmostEqual(stats["score"].total_s, (75 + 54) * 1e-6)
        self.assertAlmostEqual(stats["score"].self_s, (45 + 54) * 1e-6)
        self.assertAlmostEqual(stats["kernel"].self_s, 30e-6)

    def test_non_span_events_are_ignored(self):
        events = span("run", 1, 0, 10) + [
            {"name": "depth", "ph": "C", "ts": 5, "tid": 1,
             "args": {"value": 3}},
            {"name": "mark", "ph": "I", "ts": 6, "tid": 1, "s": "t"}]
        self.assertEqual(list(benchlib.span_stats(events)), ["run"])

    def test_unbalanced_traces_raise(self):
        with self.assertRaises(ValueError):
            benchlib.span_stats(span("a", 1, 0, 10)[:1])
        with self.assertRaises(ValueError):
            benchlib.span_stats(span("a", 1, 0, 10)[:1]
                                + span("b", 1, 0, 10)[1:])


class RatioTest(unittest.TestCase):
    def test_ratio_with_base(self):
        ratio = benchlib.Ratio(21, 26)
        self.assertTrue(ratio.defined)
        self.assertAlmostEqual(ratio.value, 21 / 26)
        self.assertEqual(ratio.format("rerank.delta_attempts"),
                         "0.8077 (rerank.delta_attempts = 26)")

    def test_zero_base_prints_the_base_not_nan(self):
        ratio = benchlib.Ratio(0, 0)
        self.assertFalse(ratio.defined)
        self.assertEqual(ratio.value, 0.0)
        text = ratio.format("rerank.delta_attempts")
        self.assertEqual(text, "n/a (rerank.delta_attempts = 0)")
        self.assertNotIn("nan", text.lower())

    def test_fractional_base_is_printed_exactly(self):
        self.assertEqual(benchlib.Ratio(3.0, 1.5).format("wall_s"),
                         "2.0000 (wall_s = 1.5)")


class OutputCheckTest(unittest.TestCase):
    @staticmethod
    def fake_run(instance, digest, **overrides):
        record = {"instance": instance, "digest": digest,
                  "docs_to_recall50": 800, "avg_precision": 0.1,
                  "permutation": True, "full_recall": True,
                  "peak_rss_mb": 100.0}
        record.update(overrides)
        return record

    def test_other_seeds_compare_runs_of_the_same_instance(self):
        runs = [self.fake_run(0, "a"), self.fake_run(1, "b"),
                self.fake_run(0, "a"), self.fake_run(1, "c")]
        failures = run.run_failures(runs, "topk-sparse", seed=7)
        self.assertEqual([bool(f) for f in failures],
                         [False, False, False, True])
        self.assertIn("digest", failures[3][0])

    def test_run_invariants_fail_the_run(self):
        runs = [self.fake_run(0, "a", permutation=False),
                self.fake_run(1, "b", full_recall=False),
                self.fake_run(0, "a", peak_rss_mb=-1.0)]
        failures = run.run_failures(runs, "topk-sparse", seed=7)
        self.assertIn("permutation", failures[0][0])
        self.assertIn("recall", failures[1][0])
        self.assertIn("peak RSS", failures[2][0])

    def test_default_seed_compares_against_pins(self):
        pinned = run.load_pins()["workloads"]["windf-live"]
        good = dict(pinned[0], instance=0, permutation=True,
                    full_recall=True, peak_rss_mb=100.0)
        bad = dict(good, avg_precision=pinned[0]["avg_precision"] + 1e-12)
        failures = run.run_failures([good, bad], "windf-live",
                                    seed=run.DEFAULT_SEED)
        self.assertEqual(failures[0], [])
        self.assertIn("avg_precision", failures[1][0])


class EndToEndMetricsTest(unittest.TestCase):
    def test_times_over_runs_and_quality_over_instances(self):
        def fake_run(instance, cpu_s, overhead_s, d50, ap, rss):
            return {"instance": instance, "documents": 1000,
                    "cpu_s": cpu_s, "ranking_cpu_s": overhead_s,
                    "detector_cpu_s": 0.0, "docs_to_recall50": d50,
                    "avg_precision": ap, "peak_rss_mb": rss}
        runs = [fake_run(0, 1.0, 0.5, 100, 0.1, 50.0),
                fake_run(1, 4.0, 2.0, 300, 0.3, 60.0),
                # An instance whose run is unusually cheap.
                fake_run(2, 0.1, 0.01, 50, 0.9, 40.0),
                fake_run(0, 2.0, 1.5, 100, 0.1, 55.0),
                fake_run(0, 0.5, 0.1, 100, 0.1, 52.0)]
        setups = [{"total_s": 3.0}, {"total_s": 1.0}, {"total_s": 2.0}]
        metrics = run.end_to_end_metrics(setups, runs)
        self.assertEqual(metrics["setup_s"], (2.0, "s"))
        # Runs: 1000, 250, 10000, 500 and 2000 documents per CPU second.
        self.assertAlmostEqual(metrics["docs_per_cpu_s"][0], 1000.0)
        self.assertAlmostEqual(metrics["adaptive_overhead_s"][0], 0.5)
        self.assertAlmostEqual(metrics["docs_to_recall50"][0], 100)
        self.assertAlmostEqual(metrics["avg_precision"][0], 0.3)
        self.assertEqual(metrics["peak_rss_mb"], (60.0, "MB"))


class PerLayerMetricsTest(unittest.TestCase):
    def test_unattributed_is_the_loop_minus_the_named_layers(self):
        traced = {"search_calls": 4, "search_hits": 40, "search_s": 0.5,
                  "detector.checks": 0, "rerank.delta_rescores": 0,
                  "rerank.full_rescores": 3, "rerank.density_fallbacks": 0,
                  "extract_cpu_s": 1.0, "documents": 100,
                  "detector_cpu_s": 0.25, "ranking_cpu_s": 2.0,
                  "wall_s": 6.0, "loop_s": 5.0, "updates": 2,
                  "learn.pegasos_steps": 0, "learn.l1_zero_clamps": 0,
                  "dropped_events": 0}
        setup = {"corpus.generate_s": 0, "text.featurize_pool_s": 0,
                 "extract.train_s": 0, "extract.outcomes_s": 0,
                 "index.build_s": 0, "index.postings_bytes": 0}
        events = (span("pipeline.train_initial", 1, 0, 100000)
                  + span("pipeline.rank", 1, 100000, 1100000)
                  + span("pipeline.consume", 1, 1100000, 4000000)[:1]
                  + span("pipeline.update", 1, 2000000, 3000000)[:1]
                  + span("pipeline.retrain", 1, 2000000, 2500000)
                  + span("pipeline.update", 1, 2000000, 3000000)[1:]
                  + span("pipeline.consume", 1, 1100000, 4000000)[1:])
        metrics, ratios = run.per_layer_metrics(
            setup, traced, [dict(traced, wall_s=5.0)],
            benchlib.span_stats(events))
        # 5.0 - (0.25 update + 0.1 train_initial + 0.5 retrain + 1.0 rank
        #        + 1.0 extract + 0.5 search)
        self.assertAlmostEqual(metrics["pipeline.unattributed_s"][0], 1.65)
        self.assertEqual(run.reconcile(metrics, benchlib.span_stats(events)),
                         ["pipeline.rank spans = 1 but rerank.full_rescores"
                          " + rerank.delta_rescores = 3",
                          "pipeline.rank spans = 1 but update.updates + 1 = 3",
                          "pipeline.retrain spans = 1 but update.updates = 2",
                          "index.search spans = 0 but index.search_calls = 4"])
        self.assertAlmostEqual(ratios["trace.overhead_ratio"][0].value, 1.2)


if __name__ == "__main__":
    unittest.main()
