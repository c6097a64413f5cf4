#!/usr/bin/env python3
"""Unit tests for the gate in run.py and the spread arithmetic in steadiness.py.

    python3 gridbench/test_steadiness.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import steadiness  # noqa: E402


def record(**overrides):
    r = {"workload": "w", "seed": 1, "shards": 1, "trace": False,
         "balanced": True, "digests": ["00ff"], "p999_tail_ok": True,
         "submitted": 100, "done": 98, "failed": 2, "lost": 0,
         "duplicates": 0, "unknown": 0, "campaign_jobs_per_s": [1.0],
         "campaign_jobs_per_ref_s": [1.0],
         "peak_rss_mb": 1.0, "setup_probe_s": [0.001, 0.002]}
    r.update({k: 1.0 for k in run.SIM_KEYS})
    r.update(overrides)
    return r


class Spread(unittest.TestCase):
    def test_interquartile_spread_over_median(self):
        sp, med, q1, q3 = steadiness.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q3, 8.25)
        self.assertAlmostEqual(sp, 1.0)

    def test_identical_values_have_no_spread(self):
        self.assertEqual(steadiness.spread([3.0] * 10)[0], 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(steadiness.worse_by(100, 110, "lower"), 0.10)
        self.assertAlmostEqual(steadiness.worse_by(100, 110, "higher"), -0.10)
        self.assertAlmostEqual(steadiness.worse_by(100, 80, "higher"), 0.20)


def done_frac(runs, attempted, bad):
    return run.end_to_end(runs, attempted, bad)["job_done_frac"]


class Gate(unittest.TestCase):
    def test_passing_runs_charge_only_their_own_failures(self):
        runs = [record(), record()]
        ok, attempted, bad = run.gate(runs, record())
        self.assertTrue(ok)
        self.assertEqual((attempted, bad), (200, 4))
        self.assertAlmostEqual(done_frac(runs, attempted, bad), 0.98)

    def test_digest_or_sim_drift_fails_the_whole_run(self):
        ref = record()
        runs = [record(), record(digests=["beef"])]
        ok, attempted, bad = run.gate(runs, ref)
        self.assertFalse(ok)
        self.assertEqual((attempted, bad), (200, 102))
        self.assertAlmostEqual(done_frac(runs, attempted, bad), 0.49)
        ok, _, _ = run.gate([record(sim_makespan_s=2.0)], ref)
        self.assertFalse(ok)

    def test_unbalanced_ledger_and_thin_tail_fail(self):
        self.assertFalse(run.gate([record(balanced=False)], record())[0])
        self.assertFalse(run.gate([record(p999_tail_ok=False)], record())[0])

    def test_shard_check_run_is_charged(self):
        runs = [record(shards=2)]
        ok, attempted, bad = run.gate(runs, runs[0], record(digests=["00ff"]))
        self.assertTrue(ok)
        self.assertEqual((attempted, bad), (200, 4))
        ok, attempted, bad = run.gate(runs, runs[0], record(digests=["beef"]))
        self.assertFalse(ok)
        self.assertEqual((attempted, bad), (200, 102))
        self.assertAlmostEqual(done_frac(runs, attempted, bad), 0.49)


if __name__ == "__main__":
    unittest.main()
