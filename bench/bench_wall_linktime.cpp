//===- bench_wall_linktime.cpp - Two-pass vs link-time allocation ---------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// §7.1 proposes [Wall 86]'s link-time register allocation as a way to
/// "circumvent most of the limitations associated with a two-pass
/// approach": the linker performs the analyzer's job by re-writing the
/// finished modules. This bench puts the paper's implicit comparison on
/// one table:
///
///   - baseline: level-2 optimization only;
///   - config C: the paper's two-pass analyzer (6-register webs plus
///     spill code motion);
///   - Wall:     baseline modules, then link-time rewriting with a
///     matching 6-register bank reserved by the compiler.
///
/// The two-pass scheme should win consistently: the analyzer sees loop
/// frequencies and call-graph structure the linker cannot recover from
/// finished code (its counts are static site counts), it can promote
/// address-taken and multi-web variables over procedure-local regions,
/// and spill code motion has no link-time counterpart here.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "core/DeltaAnalyzer.h"
#include "summary/Summary.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

using namespace ipra;
using namespace ipra::bench;

namespace {

void printTable() {
  std::printf("Two-pass analyzer (config C) vs link-time allocation "
              "([Wall 86], §7.1)\n");
  std::printf("(percent cycle improvement over level-2 optimization)\n");
  std::printf("---------------------------------------------------------"
              "---\n");
  std::printf("  %-10s | %8s %8s %8s | %9s %9s %9s\n", "Benchmark",
              "C", "Wall", "Wall+pf", "promoted", "rewrites", "peephole");
  for (const ProgramInfo &P : programList()) {
    auto Sources = loadProgram(P.Name);
    RunResult Base = runExecutable(
        Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
    if (!Base.Halted) {
      std::printf("  %-10s  <baseline failed>\n", P.Name.c_str());
      continue;
    }
    long long BaseCycles = Base.Stats.Cycles;

    RunResult TwoPass = runExecutable(
        Pipeline(PipelineConfig::configC()).build(Sources).Exe);
    double CPct = TwoPass.Halted
                      ? improvementPct(BaseCycles, TwoPass.Stats.Cycles)
                      : -999.0;

    auto Wall = compileWallStyle(Sources);
    if (!Wall.Success) {
      std::printf("  %-10s | %8.1f  <wall failed: %s>\n", P.Name.c_str(),
                  CPct, Wall.ErrorText.c_str());
      continue;
    }
    RunResult WallRun = runExecutable(Wall.Exe, 2'000'000'000);
    if (!WallRun.Halted || WallRun.Output != Base.Output) {
      std::printf("  %-10s | %8.1f  <wall output mismatch>\n",
                  P.Name.c_str(), CPct);
      continue;
    }

    // [Wall 86] with a profile: counts weighted by procedure
    // invocations from the baseline run (gprof-style bootstrap).
    LinkAllocOptions Profiled;
    Profiled.InvocationCounts = &Base.Profile.CallCounts;
    auto WallPf = compileWallStyle(Sources, Profiled);
    double WallPfPct = -999.0;
    if (WallPf.Success) {
      RunResult R = runExecutable(WallPf.Exe, 2'000'000'000);
      if (R.Halted && R.Output == Base.Output)
        WallPfPct = improvementPct(BaseCycles, R.Stats.Cycles);
    }

    std::printf("  %-10s | %8.1f %8.1f %8.1f | %9zu %9d %9d\n",
                P.Name.c_str(), CPct,
                improvementPct(BaseCycles, WallRun.Stats.Cycles),
                WallPfPct, Wall.LinkStats.Promoted.size(),
                Wall.LinkStats.RewrittenLoads +
                    Wall.LinkStats.RewrittenStores,
                Wall.LinkStats.RemovedInstrs);
  }
  std::printf(
      "\n  The linker sees only static site counts and finished code: it"
      "\n  cannot weight by loop depth, promote per-region (webs), or"
      "\n  move spill code - which is why the two-pass column wins.\n\n");
}

/// §7.1's remaining charge against the two-pass scheme is the recurring
/// cost of "keeping summary data up to date": every source edit
/// re-runs the program analyzer, while [Wall 86] pays nothing until the
/// next link. This table measures that charge with and without the
/// delta analyzer: one module's summary is edited in memory (a
/// reference-frequency change, the §7.2 common case) and the
/// damage-region re-analysis is timed against a cold full analysis.
/// The two databases are byte-compared; a mismatch invalidates the row.
void printDeltaReanalysis() {
  std::printf("Two-pass re-analysis after a one-module edit "
              "(the §7.1 update cost)\n");
  std::printf("---------------------------------------------------------"
              "---\n");
  std::printf("  %-10s %7s | %9s %9s %8s | %s\n", "Benchmark", "modules",
              "delta", "full", "speedup", "mode");
  PipelineConfig Config = PipelineConfig::configC();
  for (const ProgramInfo &P : programList()) {
    std::vector<SourceFile> Sources = loadProgram(P.Name);
    Sources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

    std::vector<ModuleSummary> Mods;
    Result<BuildResponse> P1 =
        Pipeline(Config).execute(BuildRequest::summary(Config, Sources));
    bool Ok = P1.ok();
    for (size_t I = 0; Ok && I < P1->Summaries.size(); ++I) {
      ModuleSummary MS;
      std::string Err;
      Ok = readSummary(P1->Summaries[I], MS, Err);
      Mods.push_back(std::move(MS));
    }
    if (!Ok) {
      std::printf("  %-10s  <phase 1 failed>\n", P.Name.c_str());
      continue;
    }

    DeltaAnalyzer DA;
    AnalyzerOptions Options = Config.analyzerOptions();
    DA.analyze(Mods, Options);

    // Edit: re-weight the first global reference of the first module
    // that has one (falling back to a register-need change).
    bool Edited = false;
    for (ModuleSummary &M : Mods) {
      for (ProcSummary &PS : M.Procs)
        if (!PS.GlobalRefs.empty()) {
          PS.GlobalRefs.front().Freq += 17;
          Edited = true;
          break;
        }
      if (Edited)
        break;
    }
    if (!Edited)
      Mods.front().Procs.front().CalleeRegsNeeded ^= 1u;

    using Clock = std::chrono::steady_clock;
    auto T0 = Clock::now();
    const ProgramDatabase &Got = DA.analyze(Mods, Options);
    double DeltaMs =
        std::chrono::duration<double, std::milli>(Clock::now() - T0)
            .count();

    T0 = Clock::now();
    ProgramDatabase Cold = runAnalyzer(Mods, Options);
    double FullMs =
        std::chrono::duration<double, std::milli>(Clock::now() - T0)
            .count();

    const char *Mode = DA.deltaStats().Mode == DeltaMode::Incremental
                           ? "incremental"
                           : "full (fallback)";
    if (Got.serialize() != Cold.serialize())
      Mode = "MISMATCH";
    std::printf("  %-10s %7zu | %7.2fms %7.2fms %7.1fx | %s\n",
                P.Name.c_str(), Mods.size(), DeltaMs, FullMs,
                DeltaMs > 0 ? FullMs / DeltaMs : 0.0, Mode);
  }
  std::printf(
      "\n  At benchmark scale both columns are cheap; the delta column"
      "\n  is what stays flat as the program grows (see"
      "\n  BENCH_analyzer_delta.json for the 100k-procedure sweep).\n\n");
}

void BM_WallLinkTime_fgrep(benchmark::State &State) {
  auto Sources = loadProgram("fgrep");
  for (auto _ : State) {
    auto R = compileWallStyle(Sources);
    benchmark::DoNotOptimize(R.Success);
  }
}
BENCHMARK(BM_WallLinkTime_fgrep);

} // namespace

int main(int argc, char **argv) {
  printTable();
  printDeltaReanalysis();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
