#!/usr/bin/env python3
"""Runs perfbench over several seeds and reports run-to-run spread.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads corpus,...]
                               [--seeds 1-10] [--trace 0]

Each run goes through run.py (so it builds first) and is appended to
--out. Afterwards, for every workload and end-to-end metric, it prints the
median, the spread (IQR / median, from statistics.quantiles(values, n=4))
and the metric's BENCHMARK.json bound; a spread above the bound is marked
"WIDE", one above a third of it "warn". Compare two --out files with
compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_runs, load_spec, quartiles, spread

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", args.trace,
                   "--record", args.out]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
            status = "ok" if r.returncode == 0 else f"exit {r.returncode}"
            print(f"{workload} seed {seed}: {status}", flush=True)

    metrics = load_spec()
    values, failed = load_runs(args.out)
    for (workload, trace), by_name in sorted(values.items()):
        if trace != int(args.trace):
            continue
        print(f"== {workload}: failed runs {failed[(workload, trace)]}")
        for name, vals in by_name.items():
            bound = metrics.get(name, {}).get("bound")
            s = spread(vals)
            flag = ""
            if bound is not None:
                flag = "WIDE" if s > bound else "warn" if s > bound / 3 else ""
            med = quartiles(vals)[1]
            print(f"  {name:32} median {med:12.5g}  spread {s:7.2%}  "
                  f"bound {'-' if bound is None else f'{bound:.0%}':>4} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
