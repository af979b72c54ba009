"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests

Covers the percentile and tail sample-count rule, span self-time
arithmetic, seed determinism of the generated inputs, and the agreement of
BENCHMARK.json with the metric and workload names the code reports.
"""

import json
import math
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from benchlib import inputs, layers, stats, workloads  # noqa: E402

SOLVE = workloads.SOLVE


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_missing_results_count_as_infinite(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(stats.percentile(values, 50), 1.0)
        self.assertEqual(stats.percentile(values, 99), math.inf)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertTrue(stats.tail_supported(1000, 99))
        self.assertFalse(stats.tail_supported(999, 99))
        self.assertTrue(stats.tail_supported(100, 90))
        self.assertFalse(stats.tail_supported(99, 90))

    def test_median_even_and_odd(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        spans = {
            0: (-1, 7, "request", 0, 100),
            1: (0, 7, "a", 10, 30),
            2: (0, 7, "b", 20, 50),     # overlaps a: union [10, 50]
            3: (0, 7, "c", 90, 120),    # clipped to the parent: [90, 100]
            4: (1, 7, "a.inner", 12, 18),
        }
        self_ns = stats.self_times(spans)
        self.assertEqual(self_ns[0], 100 - 40 - 10)
        self.assertEqual(self_ns[1], 20 - 6)
        self.assertEqual(self_ns[2], 30)
        self.assertEqual(self_ns[3], 30)
        self.assertEqual(self_ns[4], 6)

    def test_leaf_and_empty_children(self):
        self.assertEqual(stats.covered([], 0, 10), 0)
        self.assertEqual(stats.covered([(5, 5), (8, 3)], 0, 10), 0)
        self.assertEqual(stats.covered([(0, 4), (4, 6)], 0, 10), 6)


class InputDeterminism(unittest.TestCase):
    PHASES = [("below-knee", 100.0, 300), ("overload", 1500.0, 200)]

    def write(self, trace):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s.tsv")
            inputs.write_schedule(path, trace)
            with open(path, "rb") as f:
                return f.read()

    def test_same_seed_same_bytes(self):
        a = inputs.serve_solve_trace(5, ["p0.rts", "p1.rts"], SOLVE, self.PHASES)
        b = inputs.serve_solve_trace(5, ["p0.rts", "p1.rts"], SOLVE, self.PHASES)
        self.assertEqual(self.write(a), self.write(b))
        c = inputs.serve_solve_trace(6, ["p0.rts", "p1.rts"], SOLVE, self.PHASES)
        self.assertNotEqual(self.write(a), self.write(c))

    def test_solve_requests_never_share_a_key(self):
        trace = inputs.serve_solve_trace(5, ["p0.rts"], SOLVE, self.PHASES)
        seeds = [line.split("--seed ")[1].split()[0] for _, line, _ in trace]
        self.assertEqual(len(seeds), len(set(seeds)))
        dues = [due for due, _, _ in trace]
        self.assertEqual(dues, sorted(dues))
        self.assertEqual([p for _, _, p in trace].count("overload"), 200)

    def test_hit_replay_only_uses_warm_keys(self):
        warm, replay = inputs.serve_hit_trace(9, ["p0.rts"], SOLVE, 16, 2000.0, 500)
        self.assertEqual(len(set(warm)), 16)
        self.assertTrue(all(line in warm for _, line, _ in replay))
        self.assertEqual(replay[1][0] - replay[0][0], 500)
        again = inputs.serve_hit_trace(9, ["p0.rts"], SOLVE, 16, 2000.0, 500)
        self.assertEqual((warm, replay), again)

    def test_problem_specs_and_derived_seeds(self):
        self.assertEqual(inputs.problem_specs(3, "x", 4, 100, 8),
                         inputs.problem_specs(3, "x", 4, 100, 8))
        self.assertNotEqual(inputs.problem_specs(3, "x", 4, 100, 8),
                            inputs.problem_specs(4, "x", 4, 100, 8))
        self.assertEqual(inputs.derived_seed(3, "ga"), inputs.derived_seed(3, "ga"))
        self.assertNotEqual(inputs.derived_seed(3, "ga"), inputs.derived_seed(3, "mc"))


class ResponseNormalization(unittest.TestCase):
    def test_job_index_and_cache_flag_are_neutralized(self):
        line = '{"job":42,"problem":"p.rts","status":"ok","cache_hit":true,"digest":"ab"}'
        self.assertEqual(workloads.normalized(line),
                         '{"job":0,"problem":"p.rts","status":"ok","cache_hit":false,'
                         '"digest":"ab"}')


class HitRatio(unittest.TestCase):
    def test_warm_up_solves_leave_the_base(self):
        # 1000 replayed hits after 16 warm-up solves: every replay was a hit.
        counters = {"hits": 1000, "solved": 16, "coalesced": 0}
        ratio, base = layers.replay_hit_ratio(counters, 16)
        self.assertEqual(ratio, 1.0)
        self.assertIn(") 1000,", base)
        self.assertAlmostEqual(layers.replay_hit_ratio(counters, 0)[0], 1000 / 1016)

    def test_empty_base_reads_zero(self):
        counters = {"hits": 0, "solved": 4, "coalesced": 0}
        self.assertEqual(layers.replay_hit_ratio(counters, 4)[0], 0.0)


class BenchmarkDefinition(unittest.TestCase):
    def setUp(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")
        with open(path) as f:
            self.spec = json.load(f)

    def test_names_match_the_code(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         workloads.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         layers.PER_LAYER)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
