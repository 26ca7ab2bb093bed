//===- bench_fig7_diamond.cpp - Figure 7: diamond cluster sets ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates the Figure 7 worked example: the diamond cluster
/// J -> {K, L} -> M with register needs K=1, L=2, M=1 produces
/// FREE[K]={r1}, FREE[L]={r1,r2}, FREE[M]={r3} (our r3/r4/r5), the
/// CALLER augmentation of §4.2.4, and - with the §7.6.2 extension - the
/// improved FREE[K] that also receives r2.
///
//===----------------------------------------------------------------------===//

#include "core/RegSets.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ipra;

namespace {

std::vector<ModuleSummary> diamond() {
  ModuleSummary S;
  S.Module = "m";
  auto Proc = [&S](const char *Name, unsigned Regs) {
    ProcSummary P;
    P.QualName = Name;
    P.Module = "m";
    P.CalleeRegsNeeded = Regs;
    S.Procs.push_back(std::move(P));
  };
  auto Call = [&S](const char *From, const char *To, long long Freq) {
    for (ProcSummary &P : S.Procs)
      if (P.QualName == From)
        P.Calls.push_back(CallSummary{To, Freq});
  };
  Proc("main", 0);
  Proc("J", 0);
  Proc("K", 1);
  Proc("L", 2);
  Proc("M", 1);
  Call("main", "J", 1);
  Call("J", "K", 100);
  Call("J", "L", 100);
  Call("K", "M", 50);
  Call("L", "M", 50);
  return {S};
}

void printSets(const char *Title, const AnalyzerOptions &Options) {
  auto Summaries = diamond();
  CallGraph CG(Summaries);
  auto Clusters = identifyClusters(CG);
  auto Sets = computeRegisterSets(CG, Clusters, {}, Options);

  std::printf("%s\n", Title);
  std::printf("  %-6s %-22s %-22s %-18s\n", "Node", "FREE",
              "CALLER (callee-saves part)", "MSPILL");
  for (const char *Name : {"J", "K", "L", "M"}) {
    int Node = CG.findNode(Name);
    std::printf("  %-6s %-22s %-22s %-18s\n", Name,
                pr32::maskToString(Sets[Node].Free).c_str(),
                pr32::maskToString(Sets[Node].Caller &
                                   pr32::calleeSavedMask())
                    .c_str(),
                pr32::maskToString(Sets[Node].MSpill).c_str());
  }
  auto Problems = checkRegisterSetInvariants(CG, Clusters, {}, Sets);
  std::printf("  invariants: %s\n\n",
              Problems.empty() ? "ok" : Problems[0].c_str());
}

void BM_RegisterSetsDiamond(benchmark::State &State) {
  auto Summaries = diamond();
  for (auto _ : State) {
    CallGraph CG(Summaries);
    auto Clusters = identifyClusters(CG);
    auto Sets = computeRegisterSets(CG, Clusters, {}, {});
    benchmark::DoNotOptimize(Sets);
  }
}
BENCHMARK(BM_RegisterSetsDiamond);

} // namespace

int main(int argc, char **argv) {
  std::printf("Figure 7: diamond cluster J -> {K, L} -> M "
              "(needs K=1, L=2, M=1)\n");
  std::printf("The paper's r1/r2/r3 correspond to PR32's r3/r4/r5.\n\n");
  printSets("Base algorithm (Figure 6):", {});
  AnalyzerOptions Improved;
  Improved.ImprovedFreeSets = true;
  printSets("With the 7.6.2 improved-FREE extension "
            "(r4 joins FREE[K]):",
            Improved);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
