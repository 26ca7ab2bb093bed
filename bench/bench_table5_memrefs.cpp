//===- bench_table5_memrefs.cpp - Table 5: singleton memory refs ----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Table 5: percentage reduction in dynamic singleton memory
/// references over level-2 optimization. A singleton reference is an
/// access of a simple scalar variable (named globals and stack scalars,
/// including register save/restore and spill traffic) - array-element
/// and pointer-indirect accesses do not count, matching the paper's
/// definition. The paper's Table 5 covers six programs (no Proto C
/// row); the same set is reported here.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

void printTable() {
  std::printf("Table 5: Percent Reduction in Dynamic Singleton Memory "
              "References\n");
  std::printf("(over level-2 optimization)\n");
  std::printf("--------------------------------------------------------\n");
  std::printf("  %-10s %8s %8s %8s %8s %8s %8s\n", "Benchmark", "A", "B",
              "C", "D", "E", "F");
  for (const ProgramInfo &P : programList()) {
    if (P.Name == "protoc")
      continue; // Table 5 in the paper has no Proto C row.
    auto Sources = loadProgram(P.Name);
    auto Runs = runAllConfigs(Sources);
    if (!Runs[0].Ok) {
      std::printf("  %-10s  <baseline failed>\n", P.Name.c_str());
      continue;
    }
    long long Base = Runs[0].Stats.SingletonRefs;
    std::printf("  %-10s", P.Name.c_str());
    for (size_t I = 1; I < Runs.size(); ++I) {
      if (Runs[I].Ok)
        std::printf(" %8.1f",
                    improvementPct(Base, Runs[I].Stats.SingletonRefs));
      else
        std::printf(" %8s", "n/a");
    }
    std::printf("\n");
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  return 0;
}
