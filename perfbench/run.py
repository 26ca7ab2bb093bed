#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a checkout of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench at the checkout
root); the first run configures and compiles, later runs rebuild only what
changed. The last line of stdout is the benchmark's JSON result; build logs
go to stderr.

Extra options: --record FILE appends {"workload", "seed", "trace", "result"}
as one JSON line to FILE (what perfbench/sweep.py and compare.py read);
--smoke and --tamper are passed to the benchmark binary.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no IPRA sources next to the benchmark ({ROOT / 'src'})")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--record")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    if not build(out):
        return 3
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", args.trace]
    if args.trace == "1":
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if args.tamper:
        cmd.append("--tamper")

    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {BENCH_TIMEOUT_S}s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 5
    print(lines[-1])
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": int(args.trace),
                                "result": result}) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
