//===- BenchSupport.h - Shared benchmark harness helpers -------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure benchmark binaries: loading the
/// MiniC benchmark programs from bench/programs/, running a program at
/// every analyzer configuration, and formatting the paper-style tables.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_BENCH_BENCHSUPPORT_H
#define IPRA_BENCH_BENCHSUPPORT_H

#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "ir/Interp.h"

#include <string>
#include <vector>

namespace ipra::bench {

/// One benchmark program (Table 3 row).
struct ProgramInfo {
  std::string Name;
  std::string Description;
};

/// The ten corpus programs: stand-ins for the paper's seven Table 3
/// programs, then the disp, ptrchase and rotab showcases.
const std::vector<ProgramInfo> &programList();

/// Loads all modules of bench/programs/<name>/ (sorted by file name).
std::vector<SourceFile> loadProgram(const std::string &Name);

/// Counts non-empty source lines across a program's modules.
int countLines(const std::vector<SourceFile> &Sources);

/// Results of running one program at one configuration.
struct ConfigRun {
  std::string Config;
  RunStats Stats;
  bool Ok = false;
  std::string Output;
  AnalyzerStats Analyzer;
};

/// Compiles and runs \p Sources at the baseline and at configurations
/// A-F (profiles for B/F come from the baseline run). Also verifies
/// that every configuration produced the same program output; aborts
/// with a message on mismatch (a correctness bug would invalidate the
/// whole table).
std::vector<ConfigRun> runAllConfigs(const std::vector<SourceFile> &Sources);

/// Runs the reference IR interpreter on \p Sources plus the runtime
/// module, unoptimized. A front-end error comes back as the result's
/// Error.
IRRunResult interpretProgram(const std::vector<SourceFile> &Sources);

/// Percentage improvement of \p Now over \p Base ((base-now)/base*100).
double improvementPct(long long Base, long long Now);

} // namespace ipra::bench

#endif // IPRA_BENCH_BENCHSUPPORT_H
