#!/usr/bin/env python3
"""Unit tests of tools/bench_diff.py over hand-written result sets.

Run from the repository root:

    python3 tools/test_bench_diff.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402


def result(events_per_s, p99_us, rss_mb, failed=0, correct=True):
    """A perfbench result line with three end-to-end metrics."""
    return {
        "correct": correct, "attempted": 1000, "failed": failed,
        "metrics": {
            "events_per_s": {"value": events_per_s, "unit": "events/s"},
            "sink_p99_us": {"value": p99_us, "unit": "us"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


BEFORE = {"fleet": {"1": result(1.0e6, 20.0, 400.0)},
          "solo": {"1": result(1.0e5, 10.0, 180.0)}}


class BenchDiff(unittest.TestCase):
    def run_main(self, before, after, verdict_at=6):
        """Exit code and (workload, metric) -> the row's fields from
        @p verdict_at on, joined (the verdict, for single results)."""
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "traj.json")
            with open(path, "w") as f:
                json.dump({"machine": "test", "parent": before,
                           "change": after}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = bench_diff.main(["bench_diff.py", path + ":parent",
                                      path + ":change"])
        rows = {}
        for line in out.getvalue().splitlines()[1:]:
            parts = line.split()
            rows[(parts[0], parts[2])] = " ".join(parts[verdict_at:])
        return rc, rows

    def run_sets(self, before, after):
        """run_main over lists of runs: rows map to (before median,
        after median, before IQR, wins, verdict) strings."""
        rc, rows = self.run_main(before, after, verdict_at=3)
        fields = {}
        for key, row in rows.items():
            parts = row.split()
            fields[key] = (parts[0], parts[1], parts[3], parts[4],
                           " ".join(parts[5:]))
        return rc, fields

    def test_verdicts_follow_better_and_bound(self):
        after = {"fleet": {"1": result(8.0e6, 21.0, 200.0)},
                 "solo": {"1": result(1.1e5, 9.0, 181.0)}}
        rc, rows = self.run_main(BEFORE, after)
        self.assertEqual(rc, 0)
        self.assertEqual(rows[("fleet", "events_per_s")], "improved")
        self.assertEqual(rows[("fleet", "sink_p99_us")], "within bound")
        self.assertEqual(rows[("fleet", "peak_rss_mb")], "improved")
        self.assertEqual(rows[("solo", "events_per_s")], "within bound")
        self.assertEqual(rows[("solo", "peak_rss_mb")], "within bound")
        self.assertEqual(rows[("solo", "failed_share")], "within bound")

    def test_worse_past_bound_exits_nonzero(self):
        # peak_rss_mb's bound is 0.1: +12% is worse, lower is better.
        after = {"fleet": {"1": result(1.0e6, 20.0, 448.0)}}
        rc, rows = self.run_main(BEFORE, after)
        self.assertEqual(rc, 1)
        self.assertEqual(rows[("fleet", "peak_rss_mb")], "worse")
        # events_per_s's bound is 0.25: -30% is worse, higher is better.
        after = {"fleet": {"1": result(0.7e6, 20.0, 400.0)}}
        rc, rows = self.run_main(BEFORE, after)
        self.assertEqual(rc, 1)
        self.assertEqual(rows[("fleet", "events_per_s")], "worse")

    def test_failures_are_worse(self):
        after = {"fleet": {"1": result(1.0e6, 20.0, 400.0, failed=3,
                                       correct=False)}}
        rc, rows = self.run_main(BEFORE, after)
        self.assertEqual(rc, 1)
        self.assertEqual(rows[("fleet", "failed_share")], "worse")

    def test_no_common_workload_is_unusable(self):
        rc, _ = self.run_main(BEFORE, {"grid": {"1": result(1, 1, 1)}})
        self.assertEqual(rc, 2)

    def test_sets_report_medians_spread_and_wins(self):
        # Parent events_per_s quartiles 0.95e6 and 1.35e6 around a
        # 1.15e6 median: a spread of 0.35, past the 0.25 bound.
        before = {"fleet": {"1": [result(e, 20.0, 400.0)
                                  for e in (0.8e6, 1.0e6, 1.3e6, 1.5e6)]}}
        after = {"fleet": {"1": [result(e, 20.0, 401.0)
                                 for e in (1.0e6, 0.9e6, 1.4e6, 1.6e6)]}}
        rc, rows = self.run_sets(before, after)
        self.assertEqual(rows[("fleet", "events_per_s")],
                         ("1.15e+06", "1.2e+06", "4e+05", "3/4",
                          "unresolved"))
        self.assertEqual(rc, 1)
        # A tight parent spread resolves the same medians.
        self.assertEqual(rows[("fleet", "peak_rss_mb")],
                         ("400", "401", "0", "0/4", "within bound"))
        self.assertEqual(rows[("fleet", "failed_share")][4],
                         "within bound")

    def test_wide_spread_resolves_when_every_run_is_better(self):
        before = {"solo": {"1": [result(1.0e5, p99, 180.0)
                                 for p99 in (10.0, 14.0, 18.0)]}}
        after = {"solo": {"1": [result(1.0e5, p99, 180.0)
                                for p99 in (5.0, 9.0, 6.0)]}}
        rc, rows = self.run_sets(before, after)
        self.assertEqual(rc, 0)
        self.assertEqual(rows[("solo", "sink_p99_us")][3:],
                         ("3/3", "improved"))

    def test_worse_median_is_worse_whatever_the_spread(self):
        before = {"solo": {"1": [result(1.0e5, p99, 180.0)
                                 for p99 in (10.0, 14.0, 18.0)]}}
        after = {"solo": {"1": [result(1.0e5, p99, 180.0)
                                for p99 in (20.0, 19.0, 13.0)]}}
        rc, rows = self.run_sets(before, after)
        self.assertEqual(rc, 1)
        self.assertEqual(rows[("solo", "sink_p99_us")][3:],
                         ("1/3", "worse"))

    def test_failure_in_any_paired_run_is_worse(self):
        before = {"grid": {"1": [result(1, 1, 1), result(1, 1, 1)]}}
        after = {"grid": {"1": [result(1, 1, 1),
                                result(1, 1, 1, failed=1,
                                       correct=False)]}}
        rc, rows = self.run_sets(before, after)
        self.assertEqual(rc, 1)
        self.assertEqual(rows[("grid", "failed_share")][3:],
                         ("-", "worse"))

    def test_unpaired_run_counts_are_unusable(self):
        before = {"grid": {"1": [result(1, 1, 1), result(1, 1, 1)]}}
        after = {"grid": {"1": [result(1, 1, 1)]}}
        rc, _ = self.run_main(before, after)
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
