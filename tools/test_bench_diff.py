#!/usr/bin/env python3
"""Unit tests of tools/bench_diff.py over a hand-written pair.

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
    def run_main(self, before, after):
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
            rows[(parts[0], parts[2])] = " ".join(parts[6:])
        return rc, rows

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


if __name__ == "__main__":
    unittest.main()
