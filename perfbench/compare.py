#!/usr/bin/env python3
"""Compares two perfbench result files.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds one JSON line per run, as `run.py --record` or sweep.py
write them. For every workload and metric found in both files it prints
each side's median and quartiles (statistics.quantiles(values, n=4)) and a
verdict:

  better     the change's median is better than the base's by more than
             the base's own spread (IQR / median)
  same       neither better nor worse past the metric's BENCHMARK.json
             bound
  WORSE      worse than the base's median by more than the bound
  unresolved one side's spread (IQR / median) is wider than the bound, so
             the difference cannot be told apart from noise

Metrics without a bound (per-layer ones) report the relative change only.
Exits 1 when any end-to-end metric is WORSE, 0 otherwise.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


def load_runs(path):
    """{(workload, trace): {metric: [values]}} plus failed-run counts."""
    values = defaultdict(lambda: defaultdict(list))
    failed = defaultdict(int)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        key = (rec["workload"], rec["trace"])
        res = rec["result"]
        if not res["correct"]:
            failed[key] += 1
        for name, m in res["metrics"].items():
            values[key][name].append(m["value"])
    return values, failed


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(spec, base, change):
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    if "bound" not in spec:
        rel = (c2 - b2) / abs(b2) if b2 else 0.0
        return f"{rel:+.1%}"
    bound = spec["bound"]
    if spread(base) > bound or spread(change) > bound:
        return "unresolved"
    lower = spec["better"] == "lower"
    worse_by = ((c2 - b2) if lower else (b2 - c2)) / abs(b2) if b2 else 0.0
    if -worse_by > spread(base):
        return "better"
    return "WORSE" if worse_by > bound else "same"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, base_failed = load_runs(sys.argv[1])
    change, change_failed = load_runs(sys.argv[2])
    worse = False
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'untraced'}; runs: "
              f"{len(next(iter(base[key].values())))} vs "
              f"{len(next(iter(change[key].values())))}; failed runs: "
              f"{base_failed[key]} vs {change_failed[key]})")
        print(f"  {'metric':34} {'base q1/med/q3':>32} "
              f"{'change q1/med/q3':>32}  verdict")
        for name in sorted(set(base[key]) & set(change[key])):
            b, c = base[key][name], change[key][name]
            v = verdict(spec.get(name, {}), b, c)
            worse |= v == "WORSE"
            fb = "/".join(f"{x:.4g}" for x in quartiles(b))
            fc = "/".join(f"{x:.4g}" for x in quartiles(c))
            print(f"  {name:34} {fb:>32} {fc:>32}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
