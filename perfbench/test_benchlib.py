"""Unit tests of the benchmark's own arithmetic and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import benchlib
import checks


def span(sid, parent, name, ts_us, dur_us, tid=0):
    return {"name": name, "ts": ts_us, "dur": dur_us, "tid": tid,
            "args": {"id": sid, "parent": parent}}


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.1, 2.2, 2.9, 2.5, 2.4, 3.3, 2.6, 2.8, 2.7, 3.0]
        q1, q2, q3 = benchlib.quartiles(values)
        self.assertEqual([q1, q2, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(q2, benchlib.median(values))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))

    def test_median_of_even_count_averages(self):
        self.assertEqual(benchlib.median([1.0, 3.0, 2.0, 10.0]), 2.5)


class ResourceUsage(unittest.TestCase):
    def test_cpu_seconds_sums_user_and_system_deltas(self):
        start = {"utime_us": 1_000_000, "stime_us": 250_000}
        end = {"utime_us": 3_500_000, "stime_us": 750_000}
        self.assertAlmostEqual(benchlib.cpu_seconds(start, end), 3.0)

    def test_peak_rss_is_kib_to_mib(self):
        self.assertEqual(benchlib.peak_rss_mb({"maxrss_kib": 23552}), 23.0)

    def test_rep_times(self):
        rep = {
            "spawn_ns": 1_000_000_000, "body_start_ns": 1_002_000_000,
            "body_end_ns": 3_502_000_000,
            "usage_start": {"utime_us": 10, "stime_us": 0},
            "usage_end": {"utime_us": 5_000_010, "stime_us": 1_000_000},
            "usage_exit": {"maxrss_kib": 2048},
        }
        t = benchlib.rep_times(rep)
        self.assertAlmostEqual(t["setup_s"], 0.002)
        self.assertAlmostEqual(t["wall_s"], 2.5)
        self.assertAlmostEqual(t["cpu_s"], 6.0)
        self.assertEqual(t["peak_rss_mb"], 2.0)


class SpanSelfTime(unittest.TestCase):
    def test_union_length_merges_overlaps(self):
        self.assertEqual(benchlib.union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(benchlib.union_length([]), 0)
        self.assertEqual(benchlib.union_length([(0, 10), (2, 3)]), 10)

    def test_nested_spans(self):
        events = [
            span(0, -1, "bench.body", 0, 1_000_000),        # 1 s
            span(1, 0, "sim.solveOp", 100_000, 300_000),    # 0.3 s
            span(2, 0, "sim.transient", 500_000, 400_000),  # 0.4 s
            span(3, 2, "numeric.factor", 600_000, 100_000),
        ]
        selfs = benchlib.self_times(events)
        self.assertAlmostEqual(selfs[0], 0.3)
        self.assertAlmostEqual(selfs[1], 0.3)
        self.assertAlmostEqual(selfs[2], 0.3)
        self.assertAlmostEqual(selfs[3], 0.1)
        layers = benchlib.layer_self_times(events)
        self.assertAlmostEqual(layers["bench"], 0.3)
        self.assertAlmostEqual(layers["sim"], 0.6)
        self.assertAlmostEqual(layers["numeric"], 0.1)
        # Self times partition the root span.
        self.assertAlmostEqual(sum(layers.values()), 1.0)

    def test_parallel_children_count_once(self):
        # Two workers' tasks overlap in time: the parent's covered part is
        # their union, not their sum.
        events = [
            span(0, -1, "base.parallelForChunked", 0, 1_000_000),
            span(1, 0, "analysis.characterizeCell", 0, 600_000, tid=1),
            span(2, 0, "analysis.characterizeCell", 200_000, 600_000, tid=2),
        ]
        selfs = benchlib.self_times(events)
        self.assertAlmostEqual(selfs[0], 0.2)
        self.assertAlmostEqual(selfs[1], 0.6)

    def test_child_outside_parent_is_clipped(self):
        events = [span(0, -1, "bench.body", 0, 100), span(1, 0, "sim.transient", 50, 100)]
        self.assertAlmostEqual(benchlib.self_times(events)[0], 50e-6)


class Deviations(unittest.TestCase):
    def test_full_scale_dev(self):
        refs = [10.0, -20.0, 0.001]
        self.assertEqual(benchlib.full_scale_dev(refs, refs), 0.0)
        # A 0.002 move on the near-zero entry is 1e-4 of full scale (20).
        self.assertAlmostEqual(benchlib.full_scale_dev([10.0, -20.0, 0.003], refs), 1e-4)
        self.assertEqual(benchlib.full_scale_dev([1.0], [0.0]), float("inf"))

    def test_count_dev(self):
        self.assertEqual(benchlib.count_dev(782, 782), 0.0)
        self.assertAlmostEqual(benchlib.count_dev(790, 782), 8 / 782)
        self.assertEqual(benchlib.count_dev(1, 0), 1.0)


class LayerMetrics(unittest.TestCase):
    def test_fractions_and_ratios(self):
        rep = {"counters": {
            "sim": {"steps": 100, "newton_iters": 250, "assembly_sec": 1.0,
                    "model_eval_sec": 0.5, "factor_sec": 0.2, "solve_sec": 0.05,
                    "assembly_replays": 10, "devices": 20, "bypassed_evals": 50,
                    "bbd_block_refactors": 30, "bbd_block_skips": 10},
            "lu_probe": {"refactor_us": 12.5, "solve_us": 3.0}}}
        events = [
            span(0, -1, "bench.body", 0, 2_600_000),
            span(1, 0, "sim.solveOp", 0, 500_000),
            span(2, 0, "sim.transient", 500_000, 2_000_000),
        ]
        m = benchlib.layer_metrics(rep, events)
        self.assertAlmostEqual(m["sim.newton_per_step"], 2.5)
        self.assertAlmostEqual(m["circuit.assembly_frac"], 0.4)
        self.assertAlmostEqual(m["devices.model_eval_frac"], 0.2)
        self.assertAlmostEqual(m["numeric.lu_frac"], 0.1)
        self.assertAlmostEqual(m["circuit.bypass_ratio"], 0.25)
        self.assertAlmostEqual(m["numeric.bbd_skip_ratio"], 0.25)
        self.assertAlmostEqual(m["bench.unattributed_frac"], 0.1 / 2.6)
        self.assertEqual(m["analysis.char_task_s_max"], 0.0)  # no farm tasks here


class Checks(unittest.TestCase):
    def paper_ref(self):
        case = {m: 1.0 for m in checks.PAPER_METRICS}
        case["functional"] = True
        mc = {"samples": 24, "mean": [1.0] * 6, "stddev": [0.1] * 6, "failed_ids": []}
        return {
            "worst_case": {c: dict(case) for c in checks.PAPER_CASES},
            "monte_carlo": {"7": {c: dict(mc) for c in checks.PAPER_CASES}},
            "population": {c: {"samples": 480, "mean": [1.0] * 6, "stddev": [0.1] * 6,
                               "failed_ids": []} for c in checks.PAPER_CASES},
        }

    def test_paper_exact_seed(self):
        ref = self.paper_ref()
        out = {"worst_case": ref["worst_case"], "monte_carlo": ref["monte_carlo"]["7"]}
        self.assertEqual(checks.check_paper_tables(out, ref, 7), (0.0, []))

    def test_paper_other_seed_is_statistical(self):
        ref = self.paper_ref()
        mc = {c: {"samples": 24, "mean": [1.05] * 6, "stddev": [0.1] * 6, "failed_ids": []}
              for c in checks.PAPER_CASES}
        out = {"worst_case": ref["worst_case"], "monte_carlo": mc}
        dev, problems = checks.check_paper_tables(out, ref, 8)
        self.assertEqual((dev, problems), (0.0, []))  # 0.05 is within 6 sigma / sqrt(24)
        for c in checks.PAPER_CASES:
            mc[c]["mean"] = [1.5] * 6
        self.assertTrue(checks.check_paper_tables(out, ref, 8)[1])

    def test_paper_worst_case_drift_fails(self):
        ref = self.paper_ref()
        out = {"worst_case": {c: dict(v) for c, v in ref["worst_case"].items()},
               "monte_carlo": ref["monte_carlo"]["7"]}
        out["worst_case"]["sstvs_l2h"]["delay_rise"] = 1.01
        dev, problems = checks.check_paper_tables(out, ref, 7)
        self.assertAlmostEqual(dev, 0.01)
        self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
