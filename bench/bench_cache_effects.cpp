//===- bench_cache_effects.cpp - §6.1's excluded cache benefits -----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// §6.1: "These simulations did not model a cache, so some of the
/// benefits of interprocedural register allocation are not accounted for
/// here. Obviously, the extent of this benefit will vary with differing
/// cache parameters and placement algorithms."
///
/// This bench quantifies the remark: Table 4's configuration-C cycle
/// improvement is recomputed with a direct-mapped I+D cache model at a
/// few sizes. Promotion eliminates memory references and shrinks code,
/// so the improvement should grow (or at worst hold) once misses cost
/// cycles.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

double improvementWithCache(const Executable &Base, const Executable &Opt,
                            const CacheConfig &Cache) {
  auto RBase = runExecutable(Base, 500'000'000, Cache);
  auto ROpt = runExecutable(Opt, 500'000'000, Cache);
  if (!RBase.Halted || !ROpt.Halted)
    return -999.0;
  return improvementPct(RBase.Stats.Cycles, ROpt.Stats.Cycles);
}

void printTable() {
  std::printf("Cache-effects extension: config C's cycle improvement with "
              "a cache model\n");
  std::printf("(direct-mapped I+D caches, 8-word lines, 20-cycle miss "
              "penalty)\n");
  std::printf("----------------------------------------------------------"
              "----\n");
  std::printf("  %-10s %10s %12s %12s %12s\n", "Benchmark", "no cache",
              "64 lines", "128 lines", "256 lines");
  for (const ProgramInfo &P : programList()) {
    auto Sources = loadProgram(P.Name);
    BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
    BuildResult Opt = Pipeline(PipelineConfig::configC()).build(Sources);
    if (!Base.ok() || !Opt.ok()) {
      std::printf("  %-10s  <compile failed>\n", P.Name.c_str());
      continue;
    }
    std::printf("  %-10s %10.1f", P.Name.c_str(),
                improvementWithCache(Base.Exe, Opt.Exe, CacheConfig{}));
    for (int Lines : {64, 128, 256}) {
      CacheConfig Cache;
      Cache.Enabled = true;
      Cache.ICacheLines = Lines;
      Cache.DCacheLines = Lines;
      std::printf(" %12.1f",
                  improvementWithCache(Base.Exe, Opt.Exe, Cache));
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
