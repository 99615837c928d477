"""Tests of the benchmark's own logic: python3 -m unittest discover -s perfbench"""

import json
import math
import random
import unittest
from pathlib import Path

import metrics

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def synthetic_records(traced):
    """Raw records of a two-round run of estimate and ci trials, shaped like the runner's."""
    lines = [
        {"type": "setup", "session_s": 5.0, "warmup_s": 1.0, "reps_s": [4.0, 2.0, 2.5],
         "reps_layers_ms": [{"data.generate_collect": 3000.0, "data.stratify": 900.0},
                            {"data.generate_collect": 1200.0, "data.stratify": 700.0},
                            {"data.generate_collect": 1300.0, "data.stratify": 800.0}]},
        {"type": "jvm", "java_version": "17", "max_heap_mb": 3072.0},
        {"type": "dataset", "name": "night-street", "rows": 1000, "truth": [2.0], "positive_rate": 0.1},
    ]
    for rnd in range(2):
        for is_traced in ([False, True] if traced else [False]):
            for i, kind in enumerate(["estimate", "estimate", "ci"]):
                lines.append({"type": "op", "round": rnd, "traced": is_traced, "kind": kind,
                              "cell": "night-street", "budget": 100, "seed": 10 * rnd + i,
                              "ms": 2.0 if kind == "estimate" else 50.0, "calls": [98, 100][:2 if kind == "estimate" else 1],
                              "est": [2.0 + 0.1 * (i - 1)], "base": [], "truth": [2.0],
                              "ci": [1.8, 2.2] if kind == "ci" else None, "error": None})
            lines.append({"type": "round", "round": rnd, "traced": is_traced,
                          "ms": 60.0 if is_traced else 54.0, "ops": 3, "gc_ms": 1.0, "gc_count": 1.0,
                          "heap_peak_mb": 500.0})
    lines.append({"type": "measured", "rounds": 2, "min_rounds": 2, "seconds": 0.2})
    if traced:
        # Round 0: an abae span (ids 1) with two children and a bootstrap span.
        lines.append({"type": "spans", "names": ["sampling.next", "oracle.query", "core.abae_run",
                                                 "core.bootstrap_ci"],
                      "rows": [[2, 1, 0, 0, 1_000_000, 2_000_000], [3, 1, 0, 1, 2_000_000, 5_000_000],
                               [1, 0, 0, 2, 0, 10_000_000], [4, 0, 0, 3, 10_000_000, 50_000_000]]})
        lines.append({"type": "count", "round": 0, "name": "sampling.next_calls", "value": 10.0})
        lines.append({"type": "count", "round": 0, "name": "oracle.calls", "value": 396.0})
        lines.append({"type": "count", "round": 1, "name": "oracle.calls", "value": 396.0})
        lines.append({"type": "probe", "name": "data.ntile_probe_ms", "ms": [3.0, 1.0, 2.0]})
        lines.append({"type": "spark", "totals": {"spark.jobs": 8.0, "spark.task_ms_max": 40.0}})
    lines.append({"type": "end"})
    return metrics.parse(json.dumps(x) for x in lines)


class TailTest(unittest.TestCase):
    def test_too_few_samples(self):
        self.assertIsNone(metrics.tail(range(10)))
        self.assertIsNone(metrics.tail([]))

    def test_twenty_samples_is_the_median_with_ten_beyond(self):
        self.assertEqual(metrics.tail(range(1, 21)), (50, 10, 20))

    def test_hundred_samples_is_p90(self):
        self.assertEqual(metrics.tail(range(1, 101)), (90, 90, 100))

    def test_rule_holds_and_is_tight(self):
        rng = random.Random(3)
        for n in range(11, 400):
            xs = [rng.random() for _ in range(n)]
            p, value, count = metrics.tail(xs)
            self.assertEqual(count, n)
            beyond = n - math.ceil(p * n / 100)
            self.assertGreaterEqual(beyond, 10)
            # One percentile higher would leave fewer than ten beyond.
            self.assertLess(n - math.ceil((p + 1) * n / 100), 10)
            self.assertEqual(value, sorted(xs)[math.ceil(p * n / 100) - 1])


    def test_tail_below_the_median_is_withheld(self):
        # Fifteen queries: ten beyond leaves p33, under the median.
        value, unit, better, detail = metrics.tail_metric(list(range(1, 16)))
        self.assertIsNone(value)
        self.assertEqual(detail, {"percentile": 33, "samples": 15})
        self.assertEqual(metrics.tail_metric([])[3], {"percentile": None, "samples": 0})

    def test_tail_at_or_above_the_median_is_reported(self):
        self.assertEqual(metrics.tail_metric(list(range(1, 21))),
                         (10, "ms", "lower", {"percentile": 50, "samples": 20}))
        self.assertEqual(metrics.tail_metric(list(range(1, 41)))[::3],
                         (30, {"percentile": 75, "samples": 40}))


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(metrics.self_time((0, 10), []), 10)

    def test_disjoint_children(self):
        self.assertEqual(metrics.self_time((0, 10), [(1, 2), (3, 6)]), 6)

    def test_overlapping_children_count_once(self):
        self.assertEqual(metrics.self_time((0, 10), [(1, 5), (3, 7), (4, 6)]), 4)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(metrics.self_time((10, 20), [(5, 12), (18, 30), (40, 50)]), 6)

    def test_self_time_in_per_layer_metrics(self):
        layer = metrics.per_layer(synthetic_records(traced=True))
        # abae span 10 ms, children cover 1 + 3 ms; two traced rounds.
        self.assertAlmostEqual(layer["core.abae_self_ms"], 6.0 / 2)
        self.assertAlmostEqual(layer["core.abae_run_ms"], 10.0 / 2)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_valid(self):
        self.assertEqual(metrics.validate_spec(SPEC), [])

    def test_every_metric_has_a_name_unit_and_direction(self):
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]+$")
            self.assertIn(m["better"], ("higher", "lower"))

    def test_validator_catches_problems(self):
        bad = {"end_to_end": [{"name": "x y", "unit": "ms", "better": "up", "bound": 0.5}],
               "per_layer": [{"name": "x y", "unit": "", "better": "lower"}]}
        # Name twice, direction, bound, unit, and the missing setup_s.
        self.assertEqual(len(metrics.validate_spec(bad)), 6)

    def test_computed_metrics_match_the_spec_exactly(self):
        self.assertEqual(set(metrics.end_to_end(synthetic_records(traced=False))),
                         {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(set(metrics.per_layer(synthetic_records(traced=True))),
                         {m["name"] for m in SPEC["per_layer"]})


class OutputTest(unittest.TestCase):
    def test_result_line_parses_with_exactly_the_contract_keys(self):
        for trace in (0, 1):
            recs = synthetic_records(traced=bool(trace))
            values = metrics.per_layer(recs) if trace else metrics.end_to_end(recs)
            attempted, failed, _ = metrics.failures(recs)
            out = json.loads(metrics.result_line(SPEC, values, trace, attempted, failed, failed == 0))
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertEqual(out["attempted"], 12 if trace else 6)
            section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            self.assertEqual([(k, v["unit"]) for k, v in out["metrics"].items()],
                             [(m["name"], m["unit"]) for m in section])

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.result_line(SPEC, {}, 0, 1, 0, True)

    def test_incomplete_records_are_an_error(self):
        with self.assertRaises(ValueError):
            metrics.parse([json.dumps({"type": "setup"})])

    def test_failed_ops_are_counted(self):
        recs = synthetic_records(traced=False)
        recs["op"][0]["error"] = "101 oracle calls over budget 100"
        self.assertEqual(metrics.failures(recs)[:2], (6, 1))

    def test_end_to_end_values(self):
        e2e = metrics.end_to_end(synthetic_records(traced=False))
        self.assertAlmostEqual(e2e["setup_s"], 5.0 + 2.5 + 1.0)
        self.assertAlmostEqual(e2e["round_ms_p50"], 54.0)
        self.assertAlmostEqual(e2e["oracle_calls_per_call"], (98 + 100 + 98 + 100 + 98) * 2 / 10)

    def test_report_names_the_workload_metrics(self):
        rep = metrics.report(synthetic_records(traced=False), 2)
        self.assertEqual(set(rep), {"setup_s", "oracle_calls_per_op", "estimate_trials_per_s",
                                    "ci_trials_per_s", "abae_rmse_rel", "ci_coverage", "ci_width_rel"})
        self.assertAlmostEqual(rep["estimate_trials_per_s"][0], 500.0)
        self.assertAlmostEqual(rep["ci_coverage"][0], 1.0)
        # Errors 0.1 and 0 in each of two rounds, relative to truth 2.
        self.assertAlmostEqual(rep["abae_rmse_rel"][0], math.sqrt(0.005) / 2)

    def test_oracle_calls_are_the_counted_ones(self):
        layer = metrics.per_layer(synthetic_records(traced=True))
        self.assertAlmostEqual(layer["oracle.calls"], 396.0)
        # Five estimator calls at budget 100 per round.
        self.assertAlmostEqual(layer["oracle.budget_used"], 792.0 / 1000)

    def test_overhead_pairs_rounds(self):
        plain = [{"round": 0, "ms": 100.0}, {"round": 1, "ms": 200.0}]
        traced = [{"round": 0, "ms": 110.0}, {"round": 1, "ms": 220.0}]
        self.assertAlmostEqual(metrics.overhead_pct(plain, traced), 10.0)


if __name__ == "__main__":
    unittest.main()
