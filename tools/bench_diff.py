#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

Usage, from the repository root:

    python3 tools/bench_diff.py BEFORE AFTER

BEFORE and AFTER each name a result set: a JSON object mapping
workload -> seed -> the JSON result line `perfbench/run.py` printed
last. An argument `FILE:KEY` takes the set stored under KEY in FILE,
so the committed trajectory diffs as

    python3 tools/bench_diff.py BENCH_perfbench.json:parent \\
        BENCH_perfbench.json:change

One row is printed per (workload, seed, end-to-end metric) present on
both sides, with the ratio AFTER / BEFORE and a verdict from the
metric's `better` and `bound`: improved (better by more than the
bound), within bound, or worse (worse by more than the bound). A
further row per (workload, seed) compares the share of failed
operations; any rise, or an incorrect AFTER run, is worse. The exit
code is 1 when any row is worse, 2 on unusable input, else 0.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(arg):
    """The result set an argument names (see the module docstring)."""
    path, key = arg, None
    if not os.path.exists(arg) and ":" in arg:
        path, key = arg.rsplit(":", 1)
    with open(path) as f:
        data = json.load(f)
    if key is not None:
        data = data[key]
    if not isinstance(data, dict):
        raise ValueError(f"{arg}: not a workload -> seed -> result map")
    return data


def verdict(before, after, better, bound):
    """'improved', 'within bound' or 'worse' for one metric."""
    if before == 0:
        if after == 0:
            return "within bound"
        return "improved" if better == "higher" else "worse"
    gain = after / before - 1.0
    if better == "lower":
        gain = -gain
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "worse"
    return "within bound"


def failed_share(result):
    attempted = result.get("attempted", 0)
    return result.get("failed", 0) / attempted if attempted else 0.0


def diff(before, after, metrics):
    """Rows (workload, seed, metric, before, after, ratio, verdict)."""
    rows = []
    for workload in sorted(set(before) & set(after)):
        seeds = sorted(set(before[workload]) & set(after[workload]),
                       key=str)
        for seed in seeds:
            b, a = before[workload][seed], after[workload][seed]
            for m in metrics:
                name = m["name"]
                if name not in b["metrics"] or name not in a["metrics"]:
                    continue
                bv = b["metrics"][name]["value"]
                av = a["metrics"][name]["value"]
                ratio = av / bv if bv else float("nan")
                rows.append((workload, seed, name, bv, av, ratio,
                             verdict(bv, av, m["better"], m["bound"])))
            bs, as_ = failed_share(b), failed_share(a)
            broken = as_ > bs or not a.get("correct", False)
            rows.append((workload, seed, "failed_share", bs, as_,
                         float("nan"),
                         "worse" if broken else "within bound"))
    return rows


def main(argv):
    if len(argv) != 3:
        print("usage: tools/bench_diff.py BEFORE AFTER", file=sys.stderr)
        return 2
    try:
        before, after = load_set(argv[1]), load_set(argv[2])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        rows = diff(before, after, metrics)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    if not rows:
        print("bench_diff: no (workload, seed) on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':<9} {'seed':>4}  {'metric':<14} {'before':>14} "
          f"{'after':>14} {'ratio':>7}  verdict")
    for workload, seed, name, bv, av, ratio, v in rows:
        shown = f"{ratio:>7.3f}" if ratio == ratio else f"{'-':>7}"
        print(f"{workload:<9} {seed:>4}  {name:<14} {bv:>14.6g} "
              f"{av:>14.6g} {shown}  {v}")
    return 1 if any(r[-1] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
