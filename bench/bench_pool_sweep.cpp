//===- bench_pool_sweep.cpp - How many registers to reserve for webs? -----===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The paper reserves SIX callee-saves registers for web coloring
/// (configuration C, §6.1) out of PA-RISC's sixteen, without reporting
/// a sweep. This ablation regenerates the missing curve: configuration
/// C at K = 2, 4, 6, 8, 10, 12 reserved registers, per program.
///
/// The tension being measured: each additional web register lets one
/// more global live in a register over its web's region, but a promoted
/// register is unavailable to the ordinary allocator at every covered
/// procedure - past the knee, register-hungry procedures start spilling
/// locals to keep globals enthroned.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

/// The K highest callee-saves registers, mirroring how the default
/// six-register pool sits at r13-r18.
RegMask poolOf(int K) {
  RegMask M = 0;
  for (int R = pr32::LastCalleeSaved; K > 0; --R, --K)
    M |= pr32::maskOf(static_cast<unsigned>(R));
  return M;
}

void printTable() {
  const int Ks[] = {2, 4, 6, 8, 10, 12};
  std::printf("Web coloring pool sweep: configuration C with K reserved "
              "registers\n");
  std::printf("(percent cycle improvement over level-2 optimization; "
              "paper uses K=6)\n");
  std::printf("--------------------------------------------------------"
              "--\n");
  std::printf("  %-10s |", "Benchmark");
  for (int K : Ks)
    std::printf(" %7s%-2d", "K=", K);
  std::printf("\n");
  for (const ProgramInfo &P : programList()) {
    auto Sources = loadProgram(P.Name);
    RunResult Base = runExecutable(
        Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
    if (!Base.Halted) {
      std::printf("  %-10s  <baseline failed>\n", P.Name.c_str());
      continue;
    }
    std::printf("  %-10s |", P.Name.c_str());
    for (int K : Ks) {
      PipelineConfig Config = PipelineConfig::configC();
      Config.WebPool = poolOf(K);
      RunResult R = runExecutable(Pipeline(Config).build(Sources).Exe);
      if (!R.Halted || R.Output != Base.Output) {
        std::printf(" %9s", "fail");
        continue;
      }
      std::printf(" %9.1f", improvementPct(Base.Stats.Cycles, R.Stats.Cycles));
    }
    std::printf("\n");
  }
  std::printf("\n  The curve flattens once the profitable webs are "
              "housed; reserving more\n  registers than the program has "
              "hot globals buys nothing and can cost\n  (covered "
              "procedures lose callee-saves headroom).\n\n");
}

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  return 0;
}
