//===- PipelineConfig.h - Pipeline inputs and configuration ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline's inputs (SourceFile) and configuration. PipelineConfig
/// extends AnalyzerOptions (core/AnalyzerOptions.h), the analyzer's one
/// options record, with the compiler and placement knobs, and exposes
/// two composable views:
///
///  - CompileOptions: everything that affects how ONE MODULE compiles in
///    either compiler phase (front end, level-2 optimization, code
///    generation) — the knobs a per-module cache key must cover;
///  - AnalyzerOptions: everything that shapes the program analyzer's
///    output, which analyzerOptions() slices out of the configuration.
///
/// Each view has a stable fingerprint; fingerprint() combines both plus
/// the artifact format versions. The incremental artifact cache keys on
/// these, so a config flip invalidates exactly the artifacts it can
/// influence: compiler knobs invalidate summaries and objects, analyzer
/// knobs invalidate only the database (objects then follow their
/// database slices).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_PIPELINECONFIG_H
#define IPRA_DRIVER_PIPELINECONFIG_H

#include "core/Analyzer.h"

#include <string>
#include <vector>

namespace ipra {

/// One MiniC source module.
struct SourceFile {
  std::string Name;
  std::string Text;

  /// Both fields with their keys (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("name", S.Name);
    V("text", S.Text);
  }
};

/// The per-module compilation knobs: the subset of the configuration
/// that can change a module's summary or object file independent of the
/// program database. NumThreads is deliberately absent — artifacts are
/// byte-identical at every thread count.
struct CompileOptions {
  /// Level-2 intraprocedural global promotion (on in every column).
  bool LocalGlobalPromotion = true;
  /// [Wall 86] compiler cooperation: registers codegen must not touch.
  RegMask LinkerReservedRegs = 0;
  /// §7.6.2: phase 2 consults per-callee clobber masks.
  bool CallerSavePropagation = false;
  /// Points-to mode (mcc --points-to=off|andersen|gpg). Andersen and
  /// GPG run the per-module points-to/escape analysis: summaries carry
  /// escape verdicts and resolved indirect-call targets, and the local
  /// optimizer consults the alias facts; GPG additionally emits each
  /// procedure's composable GPG residue (summary format v4). Off skips
  /// the analysis and writes conservative defaults.
  PointsToMode PointsTo = PointsToMode::GPG;

  /// Stable hash over every field plus the summary/object format
  /// versions; part of every cache key.
  std::string fingerprint() const;
};

/// Pipeline configuration. The six analyzer configurations of Table 4
/// are provided as named presets, composed from the
/// AnalyzerOptions::columnX() view presets. The inherited analyzer
/// knobs start at the level-2 baseline: no spill motion and no
/// promotion. Some inherited knobs reach past the analyzer: PointsTo
/// and CallerSavePropagation also enter the compile view, ModRef also
/// drives the `mcc --lint` diagnostics, and AssumeClosedWorld matters
/// only to the phase-granular requests (Pipeline::build always has main
/// and the runtime). NumThreads (0 here: IPRA_THREADS, falling back to
/// the hardware thread count) sizes both compiler phases' module-parallel
/// stages as well as the analyzer's; artifacts are byte-identical at
/// every thread count.
struct PipelineConfig : AnalyzerOptions {
  PipelineConfig() {
    SpillMotion = false;
    Promotion = PromotionMode::None;
    NumThreads = 0;
  }

  /// Run the program analyzer at all; false = level-2 baseline.
  bool Ipra = false;
  bool UseProfile = false; ///< Consume supplied profile data (§6.1 B/F).
  /// Level-2 intraprocedural global promotion (on in every column).
  bool LocalGlobalPromotion = true;
  /// [Wall 86] compiler cooperation: registers the allocator must leave
  /// untouched so the linker can assign them at link time (see
  /// link/LinkOpt.h). Zero for every two-pass configuration.
  RegMask LinkerReservedRegs = 0;
  /// Directory for the persistent artifact cache (summaries, program
  /// databases, objects). Empty disables the on-disk layer; a Pipeline
  /// object always keeps an in-memory layer. Created on first use.
  /// Neither NumThreads nor CacheDir enters any fingerprint.
  std::string CacheDir;
  /// Byte budget for the cache's in-memory layer (0 = unbounded): the
  /// LRU layer evicts down to it, so hot state stays bounded and an
  /// eviction only ever costs a rebuild, never a wrong artifact. Like
  /// CacheDir, budgets are placement policy and enter no fingerprint.
  size_t CacheMemBudgetBytes = 0;
  /// On-disk cache capacity in bytes and entry age limit in seconds
  /// (0 = unbounded / no expiry), enforced by periodic sweeps.
  size_t CacheDiskBudgetBytes = 0;
  unsigned CacheDiskTTLSeconds = 0;
  /// Route analyzer cache misses through the delta analyzer: the
  /// Pipeline retains the previous run's call graph / refsets / webs
  /// and re-analyzes only the SCC damage region of the summary edit
  /// (mcc --delta-analyze). Like NumThreads and CacheDir this enters
  /// no fingerprint — the database is byte-identical either way.
  bool DeltaAnalysis = false;

  /// Level-2 optimization only (the Table 4/5 baseline).
  static PipelineConfig baseline();
  /// Column A: spill code motion only.
  static PipelineConfig configA();
  /// Column B: spill motion with profile information.
  static PipelineConfig configB();
  /// Column C: spill motion and 6-register web coloring.
  static PipelineConfig configC();
  /// Column D: spill motion and greedy coloring.
  static PipelineConfig configD();
  /// Column E: spill motion and blanket promotion.
  static PipelineConfig configE();
  /// Column F: spill motion and 6-register coloring with profile.
  static PipelineConfig configF();

  /// The per-module compilation view of this configuration.
  CompileOptions compileOptions() const;

  /// The analyzer view of this configuration: its AnalyzerOptions base.
  /// NumThreads carries the pipeline thread count to the analyzer's
  /// parallel stages.
  AnalyzerOptions analyzerOptions() const { return *this; }
  /// Assigns an analyzer view to the base, keeping this configuration's
  /// NumThreads, and turns the analyzer on (composition: baseline() +
  /// columnC() = configC()).
  void setAnalyzerOptions(const AnalyzerOptions &O) {
    const int Threads = NumThreads;
    AnalyzerOptions::operator=(O);
    NumThreads = Threads;
    Ipra = true;
  }

  /// Fingerprint of the per-module compilation knobs (phase-1 and
  /// phase-2 cache keys).
  std::string compileFingerprint() const;
  /// Fingerprint of the analyzer knobs (database cache key).
  std::string analyzerFingerprint() const;
  /// Combined fingerprint of everything that can influence artifacts;
  /// stamped into summary files and program databases so readers reject
  /// artifacts from a different configuration.
  std::string fingerprint() const;

  /// The wire configuration (support/Json.h's Record): every field a
  /// build request carries, the AnalyzerOptions rows included. CacheDir
  /// and the cache budgets stay off the list — cache placement is
  /// server policy, not client input.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("ipra", S.Ipra);
    AnalyzerOptions::fields(S, V);
    V("use-profile", S.UseProfile);
    V("local-global-promotion", S.LocalGlobalPromotion);
    V("linker-reserved-regs", S.LinkerReservedRegs);
    V("num-threads", S.NumThreads);
    V("delta-analysis", S.DeltaAnalysis);
  }
};

} // namespace ipra

#endif // IPRA_DRIVER_PIPELINECONFIG_H
