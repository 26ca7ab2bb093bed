//===- bench_analyzer_delta.cpp - Delta vs full re-analysis scaling -------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// §7.1's cost model for separate compilation charges every source edit
/// with a full program re-analysis. This bench measures what the delta
/// analyzer makes of that charge: on a multi-module synthetic program
/// (default 200 modules x 500 procedures = 100k procedures), it applies
/// single-module edit sweeps — global-reference re-weights, register
/// footprint changes, call-frequency changes — and times the
/// damage-region re-analysis against a cold full analysis for every
/// edit. Next to that core timing it times the whole op a build runs:
/// Pipeline::analyze with delta analysis on, summary texts in and
/// database text out. The three databases are byte-compared each time;
/// any mismatch aborts non-zero (a wrong answer would invalidate every
/// number).
///
/// Results go to stdout as a table and to BENCH_analyzer_delta.json.
/// --smoke runs a small configuration (the delta ctest entry);
/// --json=<path> overrides the output file.
///
//===----------------------------------------------------------------------===//

#include "core/DeltaAnalyzer.h"
#include "driver/Pipeline.h"

#include <algorithm>
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

/// A multi-module synthetic program shaped like a real separately
/// compiled system: each module is a layered DAG of procedures whose
/// deepest layer calls into the next module's entry, main fans out to a
/// few module entries, and every module owns a clutch of globals
/// referenced in compact regions of its own procedures (with an
/// occasional cross-module reference). The condensation is a long
/// cross-module chain, so a one-module edit has a genuinely local
/// damage region — the separate-compilation shape the delta analyzer
/// exists for.
std::vector<ModuleSummary> syntheticProgram(int NumModules,
                                            int ProcsPerModule,
                                            int GlobalsPerModule,
                                            unsigned SeedValue) {
  std::mt19937 Rng(SeedValue);
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % static_cast<unsigned>(N));
  };
  constexpr int LayerWidth = 10;

  std::vector<ModuleSummary> Mods(NumModules);
  auto NameOf = [](int M, int P) {
    return M == 0 && P == 0
               ? std::string("main")
               : "p" + std::to_string(M) + "_" + std::to_string(P);
  };
  for (int M = 0; M < NumModules; ++M) {
    Mods[M].Module = "m" + std::to_string(M);
    for (int P = 0; P < ProcsPerModule; ++P) {
      ProcSummary PS;
      PS.QualName = NameOf(M, P);
      PS.Module = Mods[M].Module;
      PS.CalleeRegsNeeded = static_cast<unsigned>(Rand(8));
      PS.CallerRegsUsed = static_cast<unsigned>(Rand(0x3ff));
      Mods[M].Procs.push_back(std::move(PS));
    }
  }

  // Intra-module layers; the last layer bridges into the next module.
  for (int M = 0; M < NumModules; ++M) {
    for (int P = 0; P < ProcsPerModule; ++P) {
      int Layer = P / LayerWidth;
      int NextBase = (Layer + 1) * LayerWidth;
      if (NextBase < ProcsPerModule) {
        int NumCalls = 1 + Rand(3);
        for (int C = 0; C < NumCalls; ++C) {
          int Target = NextBase +
                       Rand(std::min(LayerWidth, ProcsPerModule - NextBase));
          Mods[M].Procs[P].Calls.push_back(
              CallSummary{NameOf(M, Target), 1 + Rand(20)});
        }
      } else if (M + 1 < NumModules && Rand(3) == 0) {
        Mods[M].Procs[P].Calls.push_back(
            CallSummary{NameOf(M + 1, Rand(LayerWidth)), 1 + Rand(10)});
      }
    }
    if (M > 0) // Keep every module reachable from main's fan-out.
      Mods[0].Procs[0].Calls.push_back(
          CallSummary{NameOf(M, Rand(LayerWidth)), 1 + Rand(20)});
  }

  // Globals: each module owns GlobalsPerModule scalars, referenced in
  // 2-4 compact regions of its own procedures, with one in five also
  // read by the neighboring module (cross-module webs exist, but the
  // reference regions stay local).
  for (int M = 0; M < NumModules; ++M) {
    for (int G = 0; G < GlobalsPerModule; ++G) {
      GlobalSummary GS;
      GS.QualName = "g" + std::to_string(M) + "_" + std::to_string(G);
      GS.Module = Mods[M].Module;
      GS.IsScalar = true;
      Mods[M].Globals.push_back(GS);

      int Regions = 2 + Rand(3);
      for (int R = 0; R < Regions; ++R) {
        int Seed = Rand(ProcsPerModule);
        Mods[M].Procs[Seed].GlobalRefs.push_back(GlobalRefSummary{
            Mods[M].Globals.back().QualName, 2 + Rand(50), Rand(3) == 0});
        for (const CallSummary &C : Mods[M].Procs[Seed].Calls) {
          if (Rand(2) != 0)
            break;
          // Callee names are module-local by construction above.
          for (int P = 0; P < ProcsPerModule; ++P)
            if (Mods[M].Procs[P].QualName == C.QualCallee) {
              Mods[M].Procs[P].GlobalRefs.push_back(GlobalRefSummary{
                  Mods[M].Globals.back().QualName, 1 + Rand(10), false});
              break;
            }
        }
      }
      if (M + 1 < NumModules && Rand(5) == 0)
        Mods[M + 1].Procs[Rand(ProcsPerModule)].GlobalRefs.push_back(
            GlobalRefSummary{Mods[M].Globals.back().QualName, 1 + Rand(8),
                             false});
    }
  }
  return Mods;
}

AnalyzerOptions benchOptions() {
  AnalyzerOptions Options;
  Options.Promotion = PromotionMode::Webs;
  Options.SpillMotion = true;
  Options.Webs.SplitSparseWebs = true;
  Options.CallerSavePropagation = true;
  return Options;
}

/// One edit kind of the sweep; returns false when the module offers no
/// such edit (never happens with the generator above).
using EditFn = bool (*)(ModuleSummary &, std::mt19937 &);

bool refEdit(ModuleSummary &Mod, std::mt19937 &Rng) {
  for (ProcSummary &P : Mod.Procs)
    if (!P.GlobalRefs.empty()) {
      P.GlobalRefs.front().Freq =
          1 + static_cast<int>(Rng() % 200u);
      return true;
    }
  return false;
}

bool regNeedEdit(ModuleSummary &Mod, std::mt19937 &Rng) {
  ProcSummary &P = Mod.Procs[Rng() % Mod.Procs.size()];
  P.CalleeRegsNeeded = static_cast<unsigned>(Rng() % 14u);
  P.CallerRegsUsed = static_cast<unsigned>(Rng() % 0x3fffu);
  return true;
}

bool callFreqEdit(ModuleSummary &Mod, std::mt19937 &Rng) {
  for (ProcSummary &P : Mod.Procs)
    if (!P.Calls.empty()) {
      P.Calls.front().Freq = 1 + static_cast<int>(Rng() % 60u);
      return true;
    }
  return false;
}

struct EditKind {
  const char *Name;
  EditFn Apply;
};

constexpr EditKind Kinds[] = {
    {"ref-freq", refEdit},
    {"reg-need", regNeedEdit},
    {"call-freq", callFreqEdit},
};

struct EditResult {
  std::string Kind;
  int Module = 0;
  double DeltaMs = 0;
  double OpMs = 0; ///< Pipeline::analyze, texts in and text out.
  double FullMs = 0;
  DeltaStats Stats;
};

void runSweep(int NumModules, int ProcsPerModule, int GlobalsPerModule,
              int ModulesPerKind, const std::string &JsonPath) {
  const int NumProcs = NumModules * ProcsPerModule;
  std::printf("Delta re-analysis after a one-module edit vs cold full "
              "analysis\n");
  std::printf("-----------------------------------------------------------"
              "----\n");
  std::printf("  %d modules x %d procs = %d procedures, %d globals\n\n",
              NumModules, ProcsPerModule, NumProcs,
              NumModules * GlobalsPerModule);

  std::mt19937 Rng(1990);
  std::vector<ModuleSummary> Mods = syntheticProgram(
      NumModules, ProcsPerModule, GlobalsPerModule, 1990);
  AnalyzerOptions Options = benchOptions();

  DeltaAnalyzer DA;
  auto T0 = Clock::now();
  DA.analyze(Mods, Options);
  double PrimeMs = msSince(T0);

  // The same analysis as a build runs it: the pipeline's own session
  // parses the summary texts it has not seen and writes the database
  // text. The memory budget bounds the cache, as a long-lived build
  // service would.
  PipelineConfig Config;
  Config.setAnalyzerOptions(Options);
  Config.NumThreads = Options.NumThreads;
  Config.DeltaAnalysis = true;
  Config.CacheMemBudgetBytes = 32u << 20;
  Pipeline Pipe(Config);
  std::vector<std::string> Texts;
  for (const ModuleSummary &M : Mods)
    Texts.push_back(writeSummary(M));
  if (DatabaseResult R = Pipe.analyze(Texts); !R.ok()) {
    std::fprintf(stderr, "FATAL: pipeline prime failed: %s\n",
                 R.text().c_str());
    std::exit(1);
  }
  const AnalyzerStats &PS = DA.stats();
  std::printf("  prime (cold full analysis): %.1fms "
              "(refsets=%.1fms webs=%.1fms coloring=%.1fms "
              "clusters=%.1fms regsets=%.1fms)\n\n",
              PrimeMs, PS.RefSetsMs, PS.WebsMs, PS.ColoringMs,
              PS.ClustersMs, PS.RegSetsMs);
  std::printf("  %-10s %7s | %9s %9s %9s %8s | %13s %9s\n", "edit",
              "module", "delta", "op", "full", "speedup", "damaged sccs",
              "web reuse");

  std::vector<EditResult> Results;
  for (const EditKind &Kind : Kinds) {
    for (int E = 0; E < ModulesPerKind; ++E) {
      // Spread the edited modules across the program.
      int M = (E * NumModules) / ModulesPerKind + 1;
      M = std::min(M, NumModules - 1);
      if (!Kind.Apply(Mods[M], Rng))
        continue;

      EditResult R;
      R.Kind = Kind.Name;
      R.Module = M;

      T0 = Clock::now();
      const ProgramDatabase &Got = DA.analyze(Mods, Options);
      R.DeltaMs = msSince(T0);
      R.Stats = DA.deltaStats();

      Texts[M] = writeSummary(Mods[M]);
      T0 = Clock::now();
      DatabaseResult Op = Pipe.analyze(Texts);
      R.OpMs = msSince(T0);

      T0 = Clock::now();
      ProgramDatabase Cold = runAnalyzer(Mods, Options);
      R.FullMs = msSince(T0);

      std::string ColdText = Cold.serialize();
      Cold.ConfigFingerprint = Config.fingerprint();
      if (Got.serialize() != ColdText || !Op.ok() ||
          Op.Mode != "delta" || Op.DatabaseText != Cold.serialize()) {
        std::fprintf(stderr,
                     "FATAL: delta database differs from full analysis "
                     "(edit %s, module %d)\n",
                     Kind.Name, M);
        std::exit(1);
      }
      if (R.Stats.Mode != DeltaMode::Incremental) {
        std::fprintf(stderr,
                     "FATAL: expressible edit fell back to full analysis "
                     "(edit %s, module %d: %s)\n",
                     Kind.Name, M, R.Stats.FallbackReason.c_str());
        std::exit(1);
      }

      std::printf("  %-10s %7d | %7.1fms %7.1fms %7.1fms %7.1fx | %6d/%-6d "
                  "%8.1f%%\n",
                  R.Kind.c_str(), R.Module, R.DeltaMs, R.OpMs, R.FullMs,
                  R.DeltaMs > 0 ? R.FullMs / R.DeltaMs : 0.0,
                  R.Stats.DamagedSccs, R.Stats.TotalSccs,
                  R.Stats.reuseRatio() * 100.0);
      Results.push_back(std::move(R));
    }
  }

  double DeltaTotal = 0, OpTotal = 0, FullTotal = 0;
  for (const EditResult &R : Results) {
    DeltaTotal += R.DeltaMs;
    OpTotal += R.OpMs;
    FullTotal += R.FullMs;
  }
  double MeanSpeedup =
      DeltaTotal > 0 ? FullTotal / DeltaTotal : 0.0;
  double CoreShare = OpTotal > 0 ? DeltaTotal / OpTotal : 0.0;
  std::printf("\n  %zu edits: delta mean %.1fms, op mean %.1fms (core "
              "share %.0f%%), full mean %.1fms, overall speedup %.1fx\n",
              Results.size(), DeltaTotal / Results.size(),
              OpTotal / Results.size(), CoreShare * 100.0,
              FullTotal / Results.size(), MeanSpeedup);
  const AnalyzerStats &DS = DA.stats();
  std::printf("  last delta sub-phases: refsets=%.1fms webs=%.1fms "
              "coloring=%.1fms clusters=%.1fms regsets=%.1fms\n",
              DS.RefSetsMs, DS.WebsMs, DS.ColoringMs, DS.ClustersMs,
              DS.RegSetsMs);

  std::ofstream OS(JsonPath);
  OS << "{\n  \"bench\": \"analyzer_delta\",\n"
     << "  \"modules\": " << NumModules
     << ",\n  \"procs_per_module\": " << ProcsPerModule
     << ",\n  \"procs\": " << NumProcs
     << ",\n  \"globals\": " << NumModules * GlobalsPerModule
     << ",\n  \"prime_ms\": " << PrimeMs
     << ",\n  \"overall_speedup\": " << MeanSpeedup
     << ",\n  \"delta_mean_ms\": " << DeltaTotal / Results.size()
     << ",\n  \"op_mean_ms\": " << OpTotal / Results.size()
     << ",\n  \"core_share_of_op\": " << CoreShare
     << ",\n  \"edits\": [\n";
  for (size_t I = 0; I < Results.size(); ++I) {
    const EditResult &R = Results[I];
    OS << "    {\"kind\": \"" << R.Kind << "\", \"module\": " << R.Module
       << ", \"delta_ms\": " << R.DeltaMs << ", \"op_ms\": " << R.OpMs
       << ", \"full_ms\": " << R.FullMs
       << ", \"speedup\": "
       << (R.DeltaMs > 0 ? R.FullMs / R.DeltaMs : 0.0)
       << ",\n     \"changed_procs\": " << R.Stats.ChangedProcs
       << ", \"damaged_sccs\": " << R.Stats.DamagedSccs
       << ", \"total_sccs\": " << R.Stats.TotalSccs
       << ", \"damaged_globals\": " << R.Stats.DamagedGlobals
       << ", \"total_globals\": " << R.Stats.TotalGlobals
       << ", \"web_reuse\": " << R.Stats.reuseRatio() << "}"
       << (I + 1 < Results.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  std::printf("  wrote %s\n\n", JsonPath.c_str());
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string JsonPath = "BENCH_analyzer_delta.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
  }
  if (Smoke)
    runSweep(/*NumModules=*/12, /*ProcsPerModule=*/40,
             /*GlobalsPerModule=*/6, /*ModulesPerKind=*/2, JsonPath);
  else
    runSweep(/*NumModules=*/200, /*ProcsPerModule=*/500,
             /*GlobalsPerModule=*/10, /*ModulesPerKind=*/5, JsonPath);
  return 0;
}
