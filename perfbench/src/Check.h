//===- Check.h - Correctness gates shared by the workloads ------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The independent references and checks an op is judged by: the IR
/// interpreter's output on the unoptimized program, verifyIPRA over a
/// build's objects and database, and artifact identity hashes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include "Bench.h"

#include "driver/PipelineConfig.h"
#include "ir/Interp.h"
#include "sim/Simulator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Interprets the unoptimized IR of \p Sources plus the runtime module.
/// Fails (Ok = false, Error set) on a front-end error.
ipra::IRRunResult
interpretReference(const std::vector<ipra::SourceFile> &Sources);

/// Runs verifyIPRA over one build's textual objects and database.
/// Returns an empty string when the build passes, else the first
/// problem: an unreadable object or database, or any violation that is
/// not a known defect of \p Cell ("program/config"). Known defects are
/// tolerated and counted in \p Known (see perfbench/README.md).
std::string verifyArtifacts(const std::string &Cell,
                            const std::vector<std::string> &ObjectTexts,
                            const std::string &DatabaseText, int &Known);

/// Identity of a build's artifacts (summaries, database, objects).
std::uint64_t artifactHash(const std::vector<std::string> &Summaries,
                           const std::string &Database,
                           const std::vector<std::string> &Objects);

/// Simulates \p Exe and compares its output and exit code with \p Ref.
/// Returns an empty string on a match.
std::string simulateAndCompare(const ipra::Executable &Exe,
                               const ipra::IRRunResult &Ref,
                               ipra::RunStats &Stats);

/// The paper's quality counts over a set of simulated executables:
/// cycles (reported as a geometric mean over cells), dynamic singleton
/// and total memory references, and linked code size.
struct QualityTotals {
  std::vector<double> Cycles;
  double Singletons = 0;
  double MemRefs = 0;
  double CodeWords = 0;

  void add(const ipra::RunStats &S, const ipra::Executable &Exe);
  /// Sets cycles_geomean, singleton_refs, mem_refs and code_words.
  void report(Outcome &Out) const;
};

/// Builds every bench/programs program once at \p Config (named
/// \p ConfigName in failures and known defects), checks each like a
/// corpus cell (verifyIPRA, output against the IR interpreter)
/// and adds its counts to \p Q. For workloads whose ops produce no code
/// of their own. Defined in Corpus.cpp.
void corpusQualityProbe(const Options &Opts, const ipra::PipelineConfig &Config,
                        const std::string &ConfigName, Outcome &Out,
                        QualityTotals &Q);

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
