//===- quickstart.cpp - Five-minute tour of the pipeline ------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Quickstart: compile a two-module MiniC program through the paper's
/// two-pass pipeline (Figure 1), once at the level-2 baseline and once
/// with interprocedural register allocation (configuration C), run both
/// on the PR32 simulator, and compare the counters the paper reports.
/// Along the way, the intermediate artifacts (a summary file and the
/// program database) are printed - these are the files that carry
/// interprocedural facts across module boundaries.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <cstdio>

using namespace ipra;

int main() {
  // A little two-module program with hot globals: 'counter' and 'limit'
  // are accessed from both modules on every iteration.
  SourceFile Lib{"lib.mc",
                 "int counter;\n"
                 "int limit;\n"
                 "int step(int x) {\n"
                 "  counter = counter + x;\n"
                 "  if (counter > limit) counter = counter - limit;\n"
                 "  return counter;\n"
                 "}\n"};
  SourceFile Main{"main.mc",
                  "int counter;\n"
                  "int limit;\n"
                  "int step(int x);\n"
                  "int main() {\n"
                  "  limit = 1000;\n"
                  "  int r = 0;\n"
                  "  for (int i = 0; i < 500; i = i + 1)\n"
                  "    r = step(i) + r;\n"
                  "  print(r);\n"
                  "  print(counter);\n"
                  "  return 0;\n"
                  "}\n"};
  std::vector<SourceFile> Sources = {Lib, Main};

  // --- 1. Level-2 baseline: each module optimized in isolation. -----------
  BuildResult BaseBuild = Pipeline(PipelineConfig::baseline()).build(Sources);
  if (!BaseBuild.ok()) {
    std::fprintf(stderr, "compile failed:\n%s\n", BaseBuild.text().c_str());
    return 1;
  }
  RunResult Base = runExecutable(BaseBuild.Exe);
  std::printf("baseline output:\n%s", Base.Output.c_str());
  std::printf("baseline cycles:            %lld\n", Base.Stats.Cycles);
  std::printf("baseline singleton refs:    %lld\n\n",
              Base.Stats.SingletonRefs);

  // --- 2. Interprocedural allocation (configuration C). -------------------
  BuildResult IpraBuild = Pipeline(PipelineConfig::configC()).build(Sources);
  RunResult Ipra = runExecutable(IpraBuild.Exe);
  std::printf("IPRA (config C) output:\n%s", Ipra.Output.c_str());
  std::printf("IPRA cycles:                %lld  (%.1f%% better)\n",
              Ipra.Stats.Cycles,
              100.0 * (Base.Stats.Cycles - Ipra.Stats.Cycles) /
                  Base.Stats.Cycles);
  std::printf("IPRA singleton refs:        %lld  (%.1f%% fewer)\n\n",
              Ipra.Stats.SingletonRefs,
              100.0 * (Base.Stats.SingletonRefs - Ipra.Stats.SingletonRefs) /
                  Base.Stats.SingletonRefs);

  // --- 3. The artifacts that cross module boundaries. ---------------------
  std::printf("summary file for lib.mc (compiler first phase output):\n");
  std::printf("%s\n", IpraBuild.SummaryFiles[0].c_str());
  std::printf("program database (program analyzer output):\n");
  std::printf("%s\n", IpraBuild.DatabaseFile.c_str());

  std::printf("analyzer: %d eligible globals, %d webs (%d colored), "
              "%d clusters (avg %.1f nodes)\n",
              IpraBuild.Analyzer.EligibleGlobals,
              IpraBuild.Analyzer.TotalWebs, IpraBuild.Analyzer.ColoredWebs,
              IpraBuild.Analyzer.NumClusters,
              IpraBuild.Analyzer.avgClusterSize());
  return 0;
}
