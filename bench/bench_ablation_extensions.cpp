//===- bench_ablation_extensions.cpp - §7.6.2 extension ablation ----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Ablation for the two §7.6.2 spill-code-motion refinements the paper
/// proposes as future work, both implemented here behind flags:
///
///  - RelaxWebAvail: remove web-promoted registers from AVAIL only at
///    nodes the web covers (the base algorithm removes them from the
///    whole cluster);
///  - ImprovedFreeSets: hand root-spilled registers unused on every
///    downstream path to interior FREE sets.
///
/// The §7.6.1 web re-merging extension ("independent webs of a global
/// variable can be re-merged to allow sharing of entry nodes, at the
/// expense of extra interferences") is also measured as C+merge.
///
/// A third §7.6.2 extension is the caller-saves pre-allocation in the
/// style of [Chow 88]: the analyzer publishes each procedure's
/// caller-saves budget and per-callee subtree clobber masks, letting
/// callers keep values live in caller-saves registers across calls that
/// cannot clobber them.
///
/// Reported as cycle improvement over level-2 at configuration C with
/// each extension toggle, for every benchmark program.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

struct AblationResult {
  double Improvement = -999.0;
  int FreeGrants = 0; ///< Total (procedure, register) FREE pairs.
};

AblationResult runConfig(const std::vector<SourceFile> &Sources,
                         bool Relax, bool Improved, long long BaseCycles,
                         bool CallerSave = false, bool Split = false,
                         bool Remerge = false) {
  PipelineConfig Config = PipelineConfig::configC();
  Config.RelaxWebAvail = Relax;
  Config.ImprovedFreeSets = Improved;
  Config.CallerSavePropagation = CallerSave;
  Config.SplitSparseWebs = Split;
  Config.RemergeWebs = Remerge;
  BuildResult B = Pipeline(Config).build(Sources);
  RunResult R = runExecutable(B.Exe);
  AblationResult Out;
  if (!B.ok() || !R.Halted)
    return Out;
  Out.Improvement = improvementPct(BaseCycles, R.Stats.Cycles);
  ProgramDatabase DB;
  std::string Error;
  if (ProgramDatabase::deserialize(B.DatabaseFile, DB, Error))
    for (const auto &[Name, Dir] : DB.procs())
      Out.FreeGrants += static_cast<int>(pr32::maskCount(Dir.Free));
  return Out;
}

void printTable() {
  std::printf("Ablation: §7.6.2 extensions on top of configuration C\n");
  std::printf("(percent cycle improvement over level-2 optimization)\n");
  std::printf("------------------------------------------------------\n");
  std::printf("  %-10s | %8s %8s %8s %8s %8s %8s %8s | %s\n",
              "Benchmark", "C", "C+relax", "C+free", "C+csave", "C+split",
              "C+merge", "C+all", "FREE grants (C / relax / free)");
  for (const ProgramInfo &P : programList()) {
    auto Sources = loadProgram(P.Name);
    RunResult Base = runExecutable(
        Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
    if (!Base.Halted) {
      std::printf("  %-10s  <baseline failed>\n", P.Name.c_str());
      continue;
    }
    long long BaseCycles = Base.Stats.Cycles;
    AblationResult C = runConfig(Sources, false, false, BaseCycles);
    AblationResult Relax = runConfig(Sources, true, false, BaseCycles);
    AblationResult Free = runConfig(Sources, false, true, BaseCycles);
    AblationResult CSave =
        runConfig(Sources, false, false, BaseCycles, true);
    AblationResult Split =
        runConfig(Sources, false, false, BaseCycles, false, true);
    AblationResult Merge =
        runConfig(Sources, false, false, BaseCycles, false, false, true);
    AblationResult All =
        runConfig(Sources, true, true, BaseCycles, true, true, true);
    std::printf("  %-10s | %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f "
                "|  %d / %d / %d\n",
                P.Name.c_str(), C.Improvement, Relax.Improvement,
                Free.Improvement, CSave.Improvement, Split.Improvement,
                Merge.Improvement, All.Improvement, C.FreeGrants,
                Relax.FreeGrants, Free.FreeGrants);
  }
  std::printf("\n  Cycle deltas are small (clusters average 2-4 nodes, "
              "§6.2); the FREE-grant\n  counts show the extensions "
              "widening the registers available without spill.\n\n");
}

} // namespace

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  return 0;
}
