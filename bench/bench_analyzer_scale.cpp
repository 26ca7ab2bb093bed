//===- bench_analyzer_scale.cpp - Analyzer scaling measurements -----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Measures the scaled analyzer (SCC-condensed P_REF/C_REF, bitset webs,
/// parallel per-global discovery) against the retained seed
/// implementations (iterate-to-fixpoint, std::set webs) on layered
/// synthetic call graphs from 500 procedures up to one million:
/// per-stage analyzer time at 1 and N threads, and the single-thread
/// speedup over the reference. The reference oracles are quadratic-ish;
/// they run (and are compared against) only up to 8000 procedures —
/// above that cap the optimized pipeline is timed alone. Results go to
/// stdout as a table and to BENCH_analyzer.json machine-readably. Where
/// the oracles run, the optimized and reference web sets are compared;
/// a mismatch aborts (a wrong answer would invalidate every number).
///
/// --smoke runs only the smallest configuration (the analyzer-scale
/// ctest entry); --json=<path> overrides the output file.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/ReferenceAnalyzer.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace ipra;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// A layered synthetic program: one root fanning out to a first layer,
/// then LayerWidth-wide layers whose procedures call 1-3 procedures in
/// the next layer. Each global is referenced in a handful of compact
/// regions (a procedure plus some of its callees), so webs stay small
/// and numerous — the shape that stresses per-global discovery.
std::vector<ModuleSummary> layeredProgram(int NumProcs, int NumGlobals,
                                          unsigned SeedValue) {
  std::mt19937 Rng(SeedValue);
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % static_cast<unsigned>(N));
  };
  constexpr int LayerWidth = 25;

  ModuleSummary S;
  S.Module = "scale";
  auto NameOf = [](int I) {
    return I == 0 ? std::string("main") : "p" + std::to_string(I);
  };
  for (int I = 0; I < NumProcs; ++I) {
    ProcSummary P;
    P.QualName = NameOf(I);
    P.Module = "scale";
    P.CalleeRegsNeeded = static_cast<unsigned>(Rand(6));
    S.Procs.push_back(std::move(P));
  }

  // Root calls every procedure of layer 1; layer L calls into layer L+1.
  auto LayerOf = [](int I) { return I == 0 ? 0 : 1 + (I - 1) / LayerWidth; };
  for (int I = 1; I <= std::min(LayerWidth, NumProcs - 1); ++I)
    S.Procs[0].Calls.push_back(CallSummary{NameOf(I), 1 + Rand(20)});
  for (int I = 1; I < NumProcs; ++I) {
    int NextBase = 1 + LayerOf(I) * LayerWidth;
    if (NextBase >= NumProcs)
      continue;
    int NumCalls = 1 + Rand(3);
    for (int C = 0; C < NumCalls; ++C) {
      int Target =
          NextBase + Rand(std::min(LayerWidth, NumProcs - NextBase));
      S.Procs[I].Calls.push_back(CallSummary{NameOf(Target), 1 + Rand(10)});
    }
  }

  // Globals: 2-4 regions each, a region being a procedure and up to two
  // of its callees.
  for (int G = 0; G < NumGlobals; ++G) {
    std::string GName = "g" + std::to_string(G);
    GlobalSummary GS;
    GS.QualName = GName;
    GS.Module = "scale";
    GS.IsScalar = true;
    S.Globals.push_back(std::move(GS));

    int Regions = 2 + Rand(3);
    for (int R = 0; R < Regions; ++R) {
      int Seed = 1 + Rand(NumProcs - 1);
      S.Procs[Seed].GlobalRefs.push_back(
          GlobalRefSummary{GName, 2 + Rand(50), Rand(3) == 0});
      int Spread = Rand(3);
      for (int C = 0;
           C < Spread && C < static_cast<int>(S.Procs[Seed].Calls.size());
           ++C) {
        // Names encode their index ("main" = 0, "p<I>" = I), so the
        // callee resolves without a scan — at a million procedures a
        // by-name search would dominate generation.
        const std::string &Callee = S.Procs[Seed].Calls[C].QualCallee;
        int Target = Callee == "main" ? 0 : std::atoi(Callee.c_str() + 1);
        S.Procs[Target].GlobalRefs.push_back(
            GlobalRefSummary{GName, 1 + Rand(10), false});
      }
    }
  }
  return {S};
}

bool websEqual(const std::vector<Web> &A, const std::vector<Web> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I) {
    const Web &X = A[I], &Y = B[I];
    if (X.Id != Y.Id || X.GlobalId != Y.GlobalId || !(X.Nodes == Y.Nodes) ||
        X.EntryNodes != Y.EntryNodes || X.Priority != Y.Priority ||
        X.Considered != Y.Considered || X.DiscardReason != Y.DiscardReason)
      return false;
  }
  return true;
}

/// The reference oracles re-derive everything with the seed algorithms
/// (iterate-to-fixpoint refsets, std::set webs); past this many
/// procedures they would dominate the run, so larger configurations
/// time the optimized pipeline alone.
constexpr int ReferenceCap = 8000;

struct ConfigResult {
  int Procs = 0;
  int Globals = 0;
  bool ReferenceRan = false; ///< Oracles ran and were compared.
  // Optimized vs reference, single-threaded.
  double RefSetsMs = 0;         ///< Production RefSets (SCC sweeps).
  double FixpointRefSetsMs = 0; ///< Seed iterate-to-fixpoint.
  double WebsMs1T = 0;          ///< Bitset discovery, 1 thread.
  double WebsMsNT = 0;          ///< Bitset discovery, N threads.
  double ReferenceWebsMs = 0;   ///< std::set discovery (always serial).
  double Speedup = 0; ///< (fixpoint + set webs) / (SCC + bitset webs 1T).
  // Full-analyzer sub-phase breakdown at 1 and N threads.
  AnalyzerStats Serial, Parallel;
};

ConfigResult runConfig(int NumProcs, int NumGlobals, unsigned Threads) {
  ConfigResult R;
  R.Procs = NumProcs;
  R.Globals = NumGlobals;
  R.ReferenceRan = NumProcs <= ReferenceCap;

  auto Summaries = layeredProgram(NumProcs, NumGlobals, 1990);
  CallGraph CG(Summaries);

  if (R.ReferenceRan) { // Warm-up: touch the allocator paths first.
    RefSets Warm(CG);
    buildWebs(CG, Warm);
  }

  auto T0 = Clock::now();
  RefSets RS(CG);
  R.RefSetsMs = msSince(T0);

  if (R.ReferenceRan) {
    T0 = Clock::now();
    reference::FixpointRefSets FixRS(CG, RS);
    R.FixpointRefSetsMs = msSince(T0);
    for (int N = 0; N < CG.size(); ++N)
      if (!(RS.pref(N) == FixRS.pref(N)) ||
          !(RS.cref(N) == FixRS.cref(N))) {
        std::fprintf(stderr,
                     "FATAL: P_REF/C_REF mismatch vs fixpoint at node %d "
                     "(%d procs, %d globals)\n",
                     N, NumProcs, NumGlobals);
        std::abort();
      }
  }

  AnalyzerOptions WO;
  WO.NumThreads = 1;
  T0 = Clock::now();
  auto Webs1T = buildWebs(CG, RS, WO);
  R.WebsMs1T = msSince(T0);

  WO.NumThreads = static_cast<int>(Threads);
  T0 = Clock::now();
  auto WebsNT = buildWebs(CG, RS, WO);
  R.WebsMsNT = msSince(T0);

  if (R.ReferenceRan) {
    T0 = Clock::now();
    auto RefWebs = reference::buildWebs(CG, RS);
    R.ReferenceWebsMs = msSince(T0);

    if (!websEqual(Webs1T, RefWebs) || !websEqual(WebsNT, RefWebs)) {
      std::fprintf(stderr,
                   "FATAL: web sets disagree with the reference "
                   "(%d procs, %d globals)\n",
                   NumProcs, NumGlobals);
      std::abort();
    }

    double Optimized = R.RefSetsMs + R.WebsMs1T;
    double Reference = R.FixpointRefSetsMs + R.ReferenceWebsMs;
    R.Speedup = Optimized > 0 ? Reference / Optimized : 0;
  } else if (!websEqual(Webs1T, WebsNT)) {
    std::fprintf(stderr,
                 "FATAL: 1T and NT web sets disagree "
                 "(%d procs, %d globals)\n",
                 NumProcs, NumGlobals);
    std::abort();
  }

  AnalyzerOptions AO;
  AO.NumThreads = 1;
  runAnalyzer(Summaries, AO, {}, &R.Serial);
  AO.NumThreads = static_cast<int>(Threads);
  runAnalyzer(Summaries, AO, {}, &R.Parallel);
  return R;
}

void writeJson(const std::string &Path,
               const std::vector<ConfigResult> &Results, unsigned Threads) {
  std::ofstream OS(Path);
  OS << "{\n  \"bench\": \"analyzer_scale\",\n  \"threads\": " << Threads
     << ",\n  \"configs\": [\n";
  for (size_t I = 0; I < Results.size(); ++I) {
    const ConfigResult &R = Results[I];
    auto Phases = [&OS](const AnalyzerStats &S) {
      OS << "{\"refsets_ms\": " << S.RefSetsMs
         << ", \"webs_ms\": " << S.WebsMs
         << ", \"coloring_ms\": " << S.ColoringMs
         << ", \"clusters_ms\": " << S.ClustersMs
         << ", \"regsets_ms\": " << S.RegSetsMs << "}";
    };
    OS << "    {\"procs\": " << R.Procs << ", \"globals\": " << R.Globals
       << ", \"reference_ran\": " << (R.ReferenceRan ? "true" : "false")
       << ",\n     \"refsets_ms\": " << R.RefSetsMs
       << ", \"fixpoint_refsets_ms\": " << R.FixpointRefSetsMs
       << ",\n     \"webs_ms_1t\": " << R.WebsMs1T
       << ", \"webs_ms_nt\": " << R.WebsMsNT
       << ", \"reference_webs_ms\": " << R.ReferenceWebsMs
       << ",\n     \"speedup_vs_reference_1t\": " << R.Speedup
       << ",\n     \"analyzer_1t\": ";
    Phases(R.Serial);
    OS << ",\n     \"analyzer_nt\": ";
    Phases(R.Parallel);
    OS << "}" << (I + 1 < Results.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
}

void runScaling(bool Smoke, const std::string &JsonPath) {
  unsigned Threads = resolveThreadCount(0);
  std::printf("Analyzer scaling: optimized (SCC refsets + bitset webs) "
              "vs seed reference\n");
  std::printf("----------------------------------------------------------"
              "---------------\n");
  std::printf("  threads for the NT columns: %u\n\n", Threads);
  std::printf("  %6s %8s | %9s %9s | %9s %9s %9s | %8s\n", "procs",
              "globals", "refset", "fixpoint", "webs 1T", "webs NT",
              "set webs", "speedup");

  // Procs x globals pairs. Above ReferenceCap procedures the seed
  // oracles are skipped (their columns print "-"): the big sizes
  // demonstrate that the optimized pipeline stays near-linear out to a
  // million procedures, not that the seed could keep up.
  std::vector<std::pair<int, int>> Sizes =
      Smoke ? std::vector<std::pair<int, int>>{{500, 100}}
            : std::vector<std::pair<int, int>>{{500, 100},    {500, 500},
                                               {2000, 100},   {2000, 500},
                                               {8000, 100},   {8000, 500},
                                               {100000, 500}, {1000000, 100}};

  std::vector<ConfigResult> Results;
  for (auto [NumProcs, NumGlobals] : Sizes) {
    ConfigResult R = runConfig(NumProcs, NumGlobals, Threads);
    if (R.ReferenceRan)
      std::printf("  %6d %8d | %7.1fms %7.1fms | %7.1fms %7.1fms %7.1fms "
                  "| %7.2fx\n",
                  R.Procs, R.Globals, R.RefSetsMs, R.FixpointRefSetsMs,
                  R.WebsMs1T, R.WebsMsNT, R.ReferenceWebsMs, R.Speedup);
    else
      std::printf("  %6d %8d | %7.1fms %9s | %7.1fms %7.1fms %9s "
                  "| %8s\n",
                  R.Procs, R.Globals, R.RefSetsMs, "-", R.WebsMs1T,
                  R.WebsMsNT, "-", "-");
    Results.push_back(R);
  }

  const ConfigResult &Last = Results.back();
  std::printf("\n  full analyzer at %d procs x %d globals (1 thread): "
              "refsets=%.1fms webs=%.1fms coloring=%.1fms clusters=%.1fms "
              "regsets=%.1fms\n",
              Last.Procs, Last.Globals, Last.Serial.RefSetsMs,
              Last.Serial.WebsMs, Last.Serial.ColoringMs,
              Last.Serial.ClustersMs, Last.Serial.RegSetsMs);
  std::printf("  full analyzer at %d procs x %d globals (%u threads): "
              "refsets=%.1fms webs=%.1fms coloring=%.1fms clusters=%.1fms "
              "regsets=%.1fms\n",
              Last.Procs, Last.Globals, Threads, Last.Parallel.RefSetsMs,
              Last.Parallel.WebsMs, Last.Parallel.ColoringMs,
              Last.Parallel.ClustersMs, Last.Parallel.RegSetsMs);

  writeJson(JsonPath, Results, Threads);
  std::printf("\n  wrote %s\n\n", JsonPath.c_str());
}

void BM_BuildWebsBitset2000x100(benchmark::State &State) {
  auto Summaries = layeredProgram(2000, 100, 1990);
  CallGraph CG(Summaries);
  RefSets RS(CG);
  for (auto _ : State) {
    auto Webs = buildWebs(CG, RS);
    benchmark::DoNotOptimize(Webs);
  }
}
BENCHMARK(BM_BuildWebsBitset2000x100);

void BM_BuildWebsReference2000x100(benchmark::State &State) {
  auto Summaries = layeredProgram(2000, 100, 1990);
  CallGraph CG(Summaries);
  RefSets RS(CG);
  for (auto _ : State) {
    auto Webs = reference::buildWebs(CG, RS);
    benchmark::DoNotOptimize(Webs);
  }
}
BENCHMARK(BM_BuildWebsReference2000x100);

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string JsonPath = "BENCH_analyzer.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
  }
  runScaling(Smoke, JsonPath);
  if (!Smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return 0;
}
