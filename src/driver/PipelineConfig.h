//===- PipelineConfig.h - Pipeline inputs and configuration ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline's inputs (SourceFile) and configuration. PipelineConfig
/// keeps the flat field layout older code sets directly, and exposes two
/// composable views:
///
///  - CompileOptions: everything that affects how ONE MODULE compiles in
///    either compiler phase (front end, level-2 optimization, code
///    generation) — the knobs a per-module cache key must cover;
///  - AnalyzerOptions (core/Analyzer.h): everything that shapes the
///    program analyzer's output.
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
/// AnalyzerOptions::columnX() view presets.
struct PipelineConfig {
  /// Run the program analyzer at all; false = level-2 baseline.
  bool Ipra = false;
  bool SpillMotion = false;
  PromotionMode Promotion = PromotionMode::None;
  RegMask WebPool = pr32::defaultWebColoringPool();
  int BlanketCount = 6;
  bool UseProfile = false; ///< Consume supplied profile data (§6.1 B/F).
  /// Level-2 intraprocedural global promotion (on in every column).
  bool LocalGlobalPromotion = true;
  /// Points-to mode feeding summaries, the local optimizer, and the
  /// analyzer (see CompileOptions::PointsTo). GPG by default;
  /// --points-to=off reproduces the paper's conservative behaviour.
  PointsToMode PointsTo = PointsToMode::GPG;
  /// Whole-program mod/ref & constancy analysis feeding the analyzer
  /// (DESIGN.md §15): dead-global web discard, read-only Modifies drop,
  /// database modref records, and the `mcc --lint` diagnostics. On by
  /// default; --modref=off reproduces the paper's read-write-assumed
  /// promotion.
  bool ModRef = true;
  /// §7.6.2 extensions (off by default; ablation benches flip them).
  bool RelaxWebAvail = false;
  bool ImprovedFreeSets = false;
  bool CallerSavePropagation = false;
  /// §7.2: set false when the sources are a library fragment rather
  /// than a whole program (only meaningful for the phase-granular
  /// requests; Pipeline::build always has main and the runtime).
  bool AssumeClosedWorld = true;
  WebOptions Webs;
  ClusterOptions Clusters;
  /// [Wall 86] compiler cooperation: registers the allocator must leave
  /// untouched so the linker can assign them at link time (see
  /// link/LinkOpt.h). Zero for every two-pass configuration.
  RegMask LinkerReservedRegs = 0;
  /// Worker threads for the module-parallel pipeline stages (both
  /// compiler phases; the analyzer is always single-threaded). 0 means
  /// take the IPRA_THREADS environment variable, falling back to the
  /// hardware thread count; 1 compiles serially on the calling thread.
  /// Artifacts are byte-identical at every thread count.
  int NumThreads = 0;
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
  /// Writes a compile view back into the flat fields.
  void setCompileOptions(const CompileOptions &O);

  /// The analyzer view of this configuration (fully populated
  /// core::AnalyzerOptions, replacing the field-by-field copies the
  /// driver used to repeat).
  AnalyzerOptions analyzerOptions() const;
  /// Writes an analyzer view back into the flat fields and turns the
  /// analyzer on (composition: baseline() + columnC() = configC()).
  void setAnalyzerOptions(const AnalyzerOptions &O);

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
  /// build request carries. CacheDir and the cache budgets stay off the
  /// list — cache placement is server policy, not client input.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("ipra", S.Ipra);
    V("spill-motion", S.SpillMotion);
    V("promotion", S.Promotion);
    V("web-pool", S.WebPool);
    V("blanket-count", S.BlanketCount);
    V("use-profile", S.UseProfile);
    V("local-global-promotion", S.LocalGlobalPromotion);
    V("points-to", S.PointsTo);
    V("modref", S.ModRef);
    V("relax-web-avail", S.RelaxWebAvail);
    V("improved-free-sets", S.ImprovedFreeSets);
    V("caller-save-propagation", S.CallerSavePropagation);
    V("assume-closed-world", S.AssumeClosedWorld);
    V("webs", S.Webs);
    V("clusters", S.Clusters);
    V("linker-reserved-regs", S.LinkerReservedRegs);
    V("num-threads", S.NumThreads);
    V("delta-analysis", S.DeltaAnalysis);
  }
};

} // namespace ipra

#endif // IPRA_DRIVER_PIPELINECONFIG_H
