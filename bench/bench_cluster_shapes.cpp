//===- bench_cluster_shapes.cpp - §6.2 cluster size statistics ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates the §6.2 cluster-shape narrative: "For the applications
/// considered, the average cluster size ranged between 2 to 4 nodes.
/// The small average cluster size is, in part, responsible for the
/// marginal performance benefit observed [for spill code motion]."
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

void printTable() {
  std::printf("Cluster shapes per benchmark (the §6.2 narrative: average "
              "size 2-4)\n");
  std::printf("----------------------------------------------------------\n");
  std::printf("  %-10s %10s %10s %10s\n", "Benchmark", "clusters",
              "avg size", "max size");
  for (const ProgramInfo &P : programList()) {
    auto Sources = loadProgram(P.Name);
    BuildResult R = Pipeline(PipelineConfig::configA()).build(Sources);
    if (!R.ok()) {
      std::printf("  %-10s  <failed: %s>\n", P.Name.c_str(),
                  R.text().c_str());
      continue;
    }
    std::printf("  %-10s %10d %10.1f %10d\n", P.Name.c_str(),
                R.Analyzer.NumClusters, R.Analyzer.avgClusterSize(),
                R.Analyzer.MaxClusterSize);
  }
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  return 0;
}
