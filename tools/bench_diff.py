#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

Usage, from the repository root:

    python3 tools/bench_diff.py BEFORE AFTER

BEFORE and AFTER each name a result set: a JSON object mapping
workload -> seed -> the JSON result line `perfbench/run.py` printed
last, or a list of such lines, one per run. In lists, run i of BEFORE
and run i of AFTER form pair i, so both lists must be equally long.
An argument `FILE:KEY` takes the set stored under KEY in FILE, so the
committed trajectory diffs as

    python3 tools/bench_diff.py BENCH_perfbench.json:parent \\
        BENCH_perfbench.json:change

One row is printed per (workload, seed, end-to-end metric) present on
both sides, with a verdict from the metric's `better` and `bound`:
improved (better by more than the bound), within bound, or worse
(worse by more than the bound). A further row per (workload, seed)
compares the share of failed operations; any rise, or an incorrect
AFTER run, is worse.

When every entry is a single line, each row shows the two values and
the ratio AFTER / BEFORE. When any entry is a list, each row shows
the two medians, their ratio, the interquartile range of the BEFORE
runs and how many pairs AFTER wins (ties count for neither side), and
the verdict compares the medians. A metric that is not worse is
unresolved when the BEFORE runs' interquartile range, as a share of
their median, exceeds the bound, unless every AFTER run is better
than every BEFORE run: the runs then spread too widely to tell.

The exit code is 1 when any row is worse or unresolved, 2 on unusable
input, else 0.
"""

import json
import os
import statistics
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


def failed_share(results):
    """Failed operations over attempted ones, across @p results."""
    attempted = sum(r.get("attempted", 0) for r in results)
    failed = sum(r.get("failed", 0) for r in results)
    return failed / attempted if attempted else 0.0


def runs(entry):
    """The result lines of one (workload, seed) entry, as a list."""
    return entry if isinstance(entry, list) else [entry]


def better_than(x, y, better):
    return x < y if better == "lower" else x > y


def quartiles(values):
    """(first quartile, median, third quartile) of @p values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(bv, av, better, bound):
    """(before median, after median, before IQR, wins, verdict) of
    one metric over paired runs (see the module docstring)."""
    q1, bmed, q3 = quartiles(bv)
    amed = statistics.median(av)
    wins = sum(better_than(x, y, better) for y, x in zip(bv, av))
    v = verdict(bmed, amed, better, bound)
    spread = (q3 - q1) / abs(bmed) if bmed else 0.0
    clear = all(better_than(x, y, better) for x in av for y in bv)
    if v != "worse" and spread > bound and not clear:
        v = "unresolved"
    return bmed, amed, q3 - q1, wins, v


def diff(before, after, metrics):
    """Rows (workload, seed, metric, before, after, ratio, before IQR,
    wins, pairs, verdict); before and after are medians over runs."""
    rows = []
    for workload in sorted(set(before) & set(after)):
        seeds = sorted(set(before[workload]) & set(after[workload]),
                       key=str)
        for seed in seeds:
            b = runs(before[workload][seed])
            a = runs(after[workload][seed])
            if len(b) != len(a) or not b:
                raise ValueError(f"{workload} seed {seed}: {len(b)} "
                                 f"BEFORE runs against {len(a)} AFTER")
            for m in metrics:
                name = m["name"]
                if not all(name in r["metrics"] for r in b + a):
                    continue
                bmed, amed, iqr, wins, v = compare(
                    [r["metrics"][name]["value"] for r in b],
                    [r["metrics"][name]["value"] for r in a],
                    m["better"], m["bound"])
                ratio = amed / bmed if bmed else float("nan")
                rows.append((workload, seed, name, bmed, amed, ratio,
                             iqr, wins, len(b), v))
            bs, as_ = failed_share(b), failed_share(a)
            broken = (as_ > bs or
                      not all(r.get("correct", False) for r in a))
            rows.append((workload, seed, "failed_share", bs, as_,
                         float("nan"), float("nan"), None, len(b),
                         "worse" if broken else "within bound"))
    return rows


def singles(result_set):
    """True when every entry of @p result_set is one result line."""
    return all(isinstance(entry, dict)
               for seeds in result_set.values()
               for entry in seeds.values())


def cell(value, width, fmt):
    """@p value formatted, or a dash for NaN."""
    return f"{value:>{width}{fmt}}" if value == value else f"{'-':>{width}}"


def print_singles(rows):
    print(f"{'workload':<9} {'seed':>4}  {'metric':<14} {'before':>14} "
          f"{'after':>14} {'ratio':>7}  verdict")
    for workload, seed, name, bv, av, ratio, _, _, _, v in rows:
        print(f"{workload:<9} {seed:>4}  {name:<14} {bv:>14.6g} "
              f"{av:>14.6g} {cell(ratio, 7, '.3f')}  {v}")


def print_sets(rows):
    print(f"{'workload':<9} {'seed':>4}  {'metric':<14} "
          f"{'before_med':>14} {'after_med':>14} {'ratio':>7} "
          f"{'before_iqr':>12} {'wins':>7}  verdict")
    for (workload, seed, name, bv, av, ratio, iqr, wins, pairs,
         v) in rows:
        shown_wins = "-" if wins is None else f"{wins}/{pairs}"
        print(f"{workload:<9} {seed:>4}  {name:<14} {bv:>14.6g} "
              f"{av:>14.6g} {cell(ratio, 7, '.3f')} "
              f"{cell(iqr, 12, '.4g')} {shown_wins:>7}  {v}")


def main(argv):
    if len(argv) != 3:
        print("usage: tools/bench_diff.py BEFORE AFTER", file=sys.stderr)
        return 2
    try:
        before, after = load_set(argv[1]), load_set(argv[2])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            metrics = json.load(f)["end_to_end"]
        rows = diff(before, after, metrics)
        single = singles(before) and singles(after)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    if not rows:
        print("bench_diff: no (workload, seed) on both sides",
              file=sys.stderr)
        return 2
    if single:
        print_singles(rows)
    else:
        print_sets(rows)
    return 1 if any(r[-1] in ("worse", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
