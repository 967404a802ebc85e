#!/usr/bin/env python3
"""Compares two benchmark result sets.

Usage:

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the runs that `run.py --out FILE` appended, one JSON
object per line. For every (workload, metric) pair present on both
sides it prints both sides' medians and quartiles, the change, the share
of paired runs the new side wins (runs are paired by seed, in file
order), and a verdict: better, worse beyond bound, within bound, or
unresolved (a spread wider than the bound). End-to-end bounds come from
BENCHMARK.json; per-layer metrics have none, so the parent's own spread
stands in. The step refuses result sets from different hosts or builds.
Exits 1 when any end-to-end pair is worse beyond its bound or when the
hosts differ, 0 otherwise.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import perflib  # noqa: E402


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def series(runs):
    """{(workload, metric): [(seed, value), ...]} in file order."""
    out = {}
    for r in runs:
        for name, value in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(
                (r["seed"], value))
    return out


def paired(base, new):
    """Aligns the two sides by seed; unmatched runs pair by position."""
    new_by_seed = {}
    for seed, v in new:
        new_by_seed.setdefault(seed, []).append(v)
    b, n = [], []
    for seed, v in base:
        if new_by_seed.get(seed):
            b.append(v)
            n.append(new_by_seed[seed].pop(0))
    if not b:
        b = [v for _, v in base]
        n = [v for _, v in new]
    return b, n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    args = ap.parse_args(argv)

    base, new = load(args.base), load(args.new)
    for r in base + new:
        if not perflib.same_host(base[0]["host"], r["host"]):
            print("refusing to compare results from different hosts or "
                  f"builds: {base[0]['host']} vs {r['host']}")
            return 1

    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}

    bs, ns = series(base), series(new)
    regressions = 0

    def side(q):
        return f"{q[1]:.5g} [{q[0]:.5g}..{q[2]:.5g}]"

    print(f"{'workload':<12} {'metric':<30} {'base median [q1..q3]':<34} "
          f"{'new median [q1..q3]':<34} {'change':>8} {'wins':>5}  verdict")
    for key in sorted(set(bs) & set(ns)):
        workload, name = key
        meta = e2e.get(name) or layer.get(name)
        if meta is None:
            continue
        b, n = paired(bs[key], ns[key])
        bound = e2e[name]["bound"] if name in e2e else None
        verdict, d = perflib.verdict(b, n, meta["better"], bound)
        if name in e2e and verdict == perflib.WORSE:
            regressions += 1
        print(f"{workload:<12} {name:<30} "
              f"{side(perflib.quartiles(b)):<34} "
              f"{side(perflib.quartiles(n)):<34} "
              f"{d['change'] * 100:>+7.1f}% {d['paired_wins']:>5.2f}  "
              f"{verdict}")
    print("change is positive when the new side is better")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
