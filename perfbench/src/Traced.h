//===- Traced.h - The pipeline re-driven under spans ------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cold, single-threaded build of the same four phases Pipeline::build
/// runs, driven step by step through each module's public entry points
/// with a span around every call: Lexer/Parser/Sema, generateIR,
/// verifyModule, ModulePointsTo, optimizeFunction, generateCode,
/// buildModuleSummary/buildGPGSummary, writeSummary/readSummary,
/// runAnalyzer, database (de)serialization, writeObjectFile/
/// readObjectFile and linkObjects. Its artifacts must be byte-identical
/// to Pipeline::build's for the same inputs; the workloads check that.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACED_H
#define PERFBENCH_TRACED_H

#include "Bench.h"

#include "core/Analyzer.h"
#include "driver/PipelineConfig.h"
#include "link/Object.h"
#include "sim/Simulator.h"

#include <string>
#include <vector>

namespace perfbench {

struct TracedBuild {
  bool Ok = false;
  std::string Error;
  /// Artifacts, in Pipeline::build's order (runtime module last).
  std::vector<std::string> SummaryTexts;
  std::string DatabaseText;
  std::vector<std::string> ObjectTexts;
  ipra::Executable Exe;
  ipra::AnalyzerStats Analyzer;
  /// Parsed summaries (input to the GPG composition probe).
  std::vector<ipra::ModuleSummary> Summaries;
  /// Work counts of this build.
  double Tokens = 0;
  double IRInstrs = 0;      ///< After IRGen, phase 1 (or 2 at baseline).
  double InstrsAfter = 0;   ///< After optimization, same phase.
  double MachineInstrs = 0; ///< Phase-2 code.
  double Spills = 0;        ///< Phase-2 spilled live ranges.
};

/// Runs the traced build of \p Sources (the runtime module is appended,
/// as Pipeline::build does). Spans are recorded under whatever span is
/// open in \p T, tagged with \p Op.
TracedBuild tracedBuild(const std::vector<ipra::SourceFile> &Sources,
                        const ipra::PipelineConfig &Config,
                        const ipra::ProfileData *Profile, Tracer &T, int Op);

/// Re-runs the analyzer's GPG composition on \p Summaries under its own
/// span "analysis.gpg_compose" (the composition is otherwise inside
/// core.refsets_ms, invisible from outside).
void gpgComposeProbe(const std::vector<ipra::ModuleSummary> &Summaries,
                     bool ClosedWorld, Tracer &T, int Op);

/// Adds the per-layer values of one traced op: self time per layer,
/// summed over the spans of that layer, plus the build's work counts.
void addBuildLayers(LayerSamples &L, const Tracer &T, int Op,
                    const TracedBuild &B);

/// Fills the core.* layer values from one analyzer run's statistics.
/// \p AnalyzeMs is the wall time of the call that produced them; a
/// \p Cold run also reports the share of discovered webs kept.
void addAnalyzerLayers(LayerSamples &L, const ipra::AnalyzerStats &S,
                       double AnalyzeMs, bool Cold);

} // namespace perfbench

#endif // PERFBENCH_TRACED_H
