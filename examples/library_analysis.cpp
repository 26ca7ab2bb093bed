//===- library_analysis.cpp - Partial call graphs (§7.2) ------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// §7.2: "The methods described in this paper can be applied to partial
/// call graphs, where not all procedures and global variable references
/// are exposed to the program analyzer. ... The program analyzer would
/// be forced to make conservative assumptions about externally visible
/// procedures and variables."
///
/// This example analyzes a two-module LIBRARY by itself - no main, no
/// application, no closed world:
///
///   1. phase 1 on the library modules only;
///   2. the analyzer with AssumeClosedWorld=false: only module-private
///      statics are promotable, and externally visible procedures may
///      not serve as web interiors or cluster members (an unknown
///      caller could enter behind the web's back) - they may still be
///      web ENTRIES, which is what makes library-side promotion useful;
///   3. phase 2 on the library against that database - the library's
///      objects are now FIXED;
///   4. months later, an application is compiled at the baseline with
///      no knowledge of the library's insides, linked, and run.
///
/// The interesting web spans procedures: the cache's clock enters its
/// register at the exported bulk entry points (cacheWarm/cacheLookup)
/// and stays there through the static probe/noteHit/noteMiss helpers -
/// hundreds of internal calls with no global traffic, which level-2
/// optimization cannot do (it must assume every call clobbers the
/// global).
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "sim/Simulator.h"

#include <cstdio>

using namespace ipra;

namespace {

// A direct-mapped counter cache. The hot statics (clock, hits, misses)
// are referenced across the exported entry point and its static
// helpers; only `cacheLookup` is visible to unknown callers.
const char *CacheModule =
    "static int hits;\n"
    "static int misses;\n"
    "static int clock;\n"
    "static int keys[32];\n"
    "static int stamps[32];\n"
    "static void noteHit(int i) {\n"
    "  hits = hits + 1;\n"
    "  stamps[i] = clock;\n"
    "}\n"
    "static void noteMiss(int k, int i) {\n"
    "  misses = misses + 1;\n"
    "  keys[i] = k;\n"
    "  stamps[i] = clock;\n"
    "}\n"
    "static int probe(int k) {\n"
    "  int i = k % 32; if (i < 0) i = i + 32;\n"
    "  clock = clock + 1;\n"
    "  if (keys[i] == k) { noteHit(i); return 1; }\n"
    "  noteMiss(k, i);\n"
    "  return 0;\n"
    "}\n"
    "int cacheLookup(int k) { return probe(k); }\n"
    "int cacheWarm(int n) {\n"
    "  int found = 0;\n"
    "  for (int i = 0; i < n; i = i + 1)\n"
    "    found = found + probe((i * 17) % 97);\n"
    "  return clock - found;\n"
    "}\n"
    "int cacheHits() { return hits; }\n"
    "int cacheMisses() { return misses; }\n";

const char *StatsModule =
    "static int samples;\n"
    "static int sum;\n"
    "static void accumulate(int v) { sum = sum + v; }\n"
    "void statRecord(int v) {\n"
    "  samples = samples + 1;\n"
    "  if (v != 0) accumulate(v);\n"
    "}\n"
    "int statMean() { if (samples == 0) return 0; return sum / samples; }\n";

// The application, written long after the library shipped. The bulk
// call (cacheWarm) keeps the hot loop inside the library, where the
// analyzer hoisted the web entry to once-per-call.
const char *AppModule =
    "int cacheLookup(int k); int cacheWarm(int n);\n"
    "int cacheHits(); int cacheMisses();\n"
    "void statRecord(int v); int statMean();\n"
    "int main() {\n"
    "  print(cacheWarm(500));\n"
    "  for (int i = 0; i < 60; i = i + 1)\n"
    "    statRecord(cacheLookup((i * 31) % 97));\n"
    "  print(cacheHits());\n"
    "  print(cacheMisses());\n"
    "  print(statMean());\n"
    "  return 0;\n"
    "}\n";

} // namespace

int main() {
  std::vector<SourceFile> Library = {{"cache.mc", CacheModule},
                                     {"stats.mc", StatsModule}};
  SourceFile App = {"app.mc", AppModule};

  // --- Steps 1-2: analyze the library alone, open world. ---------------
  PipelineConfig Config = PipelineConfig::configC();
  Config.AssumeClosedWorld = false;

  Pipeline LibraryBuild(Config);
  Result<BuildResponse> P1 =
      LibraryBuild.execute(BuildRequest::summary(Config, Library));
  if (!P1.ok()) {
    std::fprintf(stderr, "%s\n", P1.text().c_str());
    return 1;
  }
  const std::vector<std::string> &Summaries = P1->Summaries;
  DatabaseResult Analyzed = LibraryBuild.analyze(Summaries);
  if (!Analyzed.ok()) {
    std::fprintf(stderr, "%s\n", Analyzed.text().c_str());
    return 1;
  }
  std::printf("analyzed the library alone (partial call graph):\n");
  std::printf("  webs: %d total, %d considered, %d colored\n",
              Analyzed.Stats.TotalWebs, Analyzed.Stats.ConsideredWebs,
              Analyzed.Stats.ColoredWebs);

  ProgramDatabase DB;
  std::string Error;
  if (!ProgramDatabase::deserialize(Analyzed.DatabaseText, DB, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  for (const auto &[Proc, Dir] : DB.procs())
    for (const PromotedGlobal &P : Dir.Promoted)
      std::printf("  %-22s holds %-16s in r%u%s\n", Proc.c_str(),
                  P.QualName.c_str(), P.Reg, P.IsEntry ? " (entry)" : "");

  // --- Step 3: the library's second phase; objects are now fixed. ------
  Result<BuildResponse> P2 = LibraryBuild.execute(
      BuildRequest::object(Config, Library, Analyzed.DatabaseText));
  if (!P2.ok()) {
    std::fprintf(stderr, "%s\n", P2.text().c_str());
    return 1;
  }
  std::vector<std::string> Objects = std::move(P2->Objects);

  // --- Step 4: the application arrives, baseline-compiled. -------------
  PipelineConfig Baseline = PipelineConfig::baseline();
  Pipeline AppBuild(Baseline);
  std::vector<SourceFile> Late = {
      App, SourceFile{"__runtime.mc", runtimeModuleSource()}};
  Result<BuildResponse> AppP2 =
      AppBuild.execute(BuildRequest::object(Baseline, Late, ""));
  if (!AppP2.ok()) {
    std::fprintf(stderr, "%s\n", AppP2.text().c_str());
    return 1;
  }
  Objects.insert(Objects.end(), AppP2->Objects.begin(), AppP2->Objects.end());
  Result<BuildResponse> Linked = AppBuild.execute(BuildRequest::link(Objects));
  if (!Linked.ok()) {
    std::fprintf(stderr, "%s\n", Linked.text().c_str());
    return 1;
  }
  RunResult Optimized = runExecutable(Linked->Exe, 500'000'000);

  // Reference build: everything at the baseline.
  std::vector<SourceFile> All = Library;
  All.push_back(App);
  RunResult Reference =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(All).Exe);

  if (!Optimized.Halted || Optimized.Output != Reference.Output) {
    std::fprintf(stderr, "behaviour mismatch!\n");
    return 1;
  }
  std::printf("\napplication linked against the pre-analyzed library:\n");
  std::printf("  output identical to the all-baseline build\n");
  std::printf("  cycles: %lld baseline -> %lld with library-side IPRA "
              "(%.1f%% better)\n",
              Reference.Stats.Cycles, Optimized.Stats.Cycles,
              100.0 * (Reference.Stats.Cycles - Optimized.Stats.Cycles) /
                  Reference.Stats.Cycles);
  std::printf(
      "\nOnly module-private statics were promoted, with externally\n"
      "visible procedures serving as web entries only (§7.2). The webs\n"
      "that matter span the entry point and its static helpers - the\n"
      "clock stays in its register across those internal calls, which\n"
      "level-2 optimization could never prove safe.\n");
  return 0;
}
