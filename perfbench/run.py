#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py [--workload grid|fleet|solo] --seed N \\
        --seconds S --trace 0|1 [--size full|tiny] [--plant-defect]

The first run configures and builds perfbench/ (which compiles the
libraries under src/) into .bench_build/perfbench; later runs only
rebuild what changed. Each workload runs in its own process and its
output is relayed unchanged: the last line of stdout is the JSON
result. Without --workload, all three run one after another and the
exit code is non-zero if any failed. Build output goes to stderr. A
failed build exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["grid", "fleet", "solo"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--plant-defect", action="store_true",
                    help="make the reference drop one insert (self-test)")
    return ap.parse_args(argv)


def build():
    """Configure once, then build the perfbench target; True on success."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def run_workload(workload, args):
    """Run one workload in its own process; its exit code."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--scratch",
           os.path.join(BUILD_ROOT, "scratch")]
    if args.trace:
        spans = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (workload, args.seed))]
    if args.plant_defect:
        cmd.append("--plant-defect")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    codes = [run_workload(w, args)
             for w in ([args.workload] if args.workload else WORKLOADS)]
    return next((c for c in codes if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
