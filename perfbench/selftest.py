#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark's correctness gates.

    python3 perfbench/selftest.py

For every workload it runs three smoke-size runs through run.py (small
inputs, a 2-second window, one set-up):

  clean    must exit 0 with correct=true and failed=0;
  traced   the --trace 1 run must also exit 0 (its artifacts must be
           byte-identical to the untraced builds');
  tamper   --tamper corrupts one artifact of one op; the run must exit
           non-zero with failed_frac = failed / attempted > 0.

Exits 1 if any expectation fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["corpus", "analyze-edit", "service-edit"]


def run(workload, *extra, trace="0"):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "2",
           "--trace", trace, "--smoke", *extra]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    try:
        result = json.loads(r.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    return r.returncode, result


def main():
    ok = True
    for w in WORKLOADS:
        for mode in ("clean", "traced", "tamper"):
            if mode == "tamper":
                code, res = run(w, "--tamper")
            else:
                code, res = run(w, trace="1" if mode == "traced" else "0")
            if res is None:
                good, detail = False, f"no result (exit {code})"
            else:
                frac = res["failed"] / res["attempted"]
                detail = (f"exit {code}, attempted {res['attempted']}, "
                          f"failed {res['failed']}, failed_frac {frac:.4f}")
                if mode == "tamper":
                    good = code != 0 and frac > 0 and not res["correct"]
                else:
                    good = code == 0 and res["failed"] == 0 and res["correct"]
            ok &= good
            print(f"{w:13} {mode:7} {'PASS' if good else 'FAIL'}  {detail}",
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
