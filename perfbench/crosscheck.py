#!/usr/bin/env python3
"""Cross-checks the corpus workload against the paper-table harnesses.

    python3 perfbench/crosscheck.py

Builds bench_table4_performance and bench_table5_memrefs from ../bench
against the same libraries perfbench links (in the benchmark's own build
tree), prints every corpus cell's simulated
cycles and singleton memory references (perfbench --dump-cells), and checks
that the percentage improvements over the baseline computed from those cells
equal, to the printed 0.1%, every entry of Table 4 (cycles) and Table 5
(singleton references). Agreement shows that the corpus workload measures
the paper's tables, not some other program. Exits 1 on any mismatch.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, build_dir  # noqa: E402

CONFIGS = ["A", "B", "C", "D", "E", "F"]


def build(out):
    cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
           "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4", "--target",
                    "perfbench", "bench_table4_performance",
                    "bench_table5_memrefs"], stdout=sys.stderr, check=True)


def table_rows(exe):
    """{program: [6 printed percentages]} from a table harness's output."""
    out = subprocess.run([str(exe), "--benchmark_filter=^$"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    rows = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 7:
            try:
                rows[parts[0]] = [f"{float(x):.1f}" for x in parts[1:]]
            except ValueError:
                continue
    return rows


def improvement(base, now):
    return f"{(100.0 * (base - now) / base) if base else 0.0:.1f}"


def main():
    out = build_dir()
    build(out)
    dump = subprocess.run([str(out / "perfbench"), "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0",
                           "--dump-cells"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    cells = {}
    for line in dump.stdout.splitlines():
        c = json.loads(line)
        cells[(c["program"], c["config"])] = c
        print(f"cell {c['program']:9} {c['config']:4} cycles "
              f"{c['cycles']:>10} singleton_refs {c['singleton_refs']:>9}")

    mismatches = 0
    checked = 0
    for exe, counter in (("bench_table4_performance", "cycles"),
                         ("bench_table5_memrefs", "singleton_refs")):
        for prog, printed in sorted(table_rows(out / exe).items()):
            base = cells[(prog, "base")][counter]
            mine = [improvement(base, cells[(prog, c)][counter])
                    for c in CONFIGS]
            checked += len(mine)
            if mine != printed:
                mismatches += 1
                print(f"MISMATCH {exe} {prog}: table {printed}, cells {mine}")
    print(f"crosscheck: {checked} table entries compared, "
          f"{mismatches} mismatching rows")
    return 1 if mismatches or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
