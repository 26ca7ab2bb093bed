//===- bench_table4_performance.cpp - Table 4: % cycle improvement --------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Table 4: percentage performance improvement over level-2
/// optimization, measured as total simulated cycles (no cache model,
/// exactly like the paper's simulator), for analyzer configurations:
///
///   A = spill motion only       D = spill motion & greedy coloring
///   B = A with profile info     E = spill motion & blanket promotion
///   C = A & 6-register coloring F = C with profile info
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

void printTable() {
  std::printf("Table 4: Percentage Performance Improvement Over Level 2 "
              "Optimization\n");
  std::printf("(total cycles measured by the PR32 simulator, no cache "
              "penalties)\n");
  std::printf("--------------------------------------------------------"
              "---------\n");
  std::printf("  %-10s %8s %8s %8s %8s %8s %8s\n", "Benchmark", "A", "B",
              "C", "D", "E", "F");
  for (const ProgramInfo &P : programList()) {
    auto Sources = loadProgram(P.Name);
    auto Runs = runAllConfigs(Sources);
    if (!Runs[0].Ok) {
      std::printf("  %-10s  <baseline failed>\n", P.Name.c_str());
      continue;
    }
    long long Base = Runs[0].Stats.Cycles;
    std::printf("  %-10s", P.Name.c_str());
    for (size_t I = 1; I < Runs.size(); ++I) {
      if (Runs[I].Ok)
        std::printf(" %8.1f",
                    improvementPct(Base, Runs[I].Stats.Cycles));
      else
        std::printf(" %8s", "n/a");
    }
    std::printf("\n");
  }
  std::printf("\n  A = Spill motion only          "
              "D = Spill motion & greedy coloring\n");
  std::printf("  B = Spill motion w/profile     "
              "E = Spill motion & blanket promotion\n");
  std::printf("  C = Spill motion & 6-reg webs  "
              "F = C with profile info\n\n");
}

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  return 0;
}
