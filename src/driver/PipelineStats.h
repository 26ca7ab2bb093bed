//===- PipelineStats.h - Pipeline timing instrumentation -------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock and artifact-size instrumentation for one pipeline run:
/// per-phase and per-module timings, serialized artifact byte counts,
/// and the thread count the driver ran with. Collected by every
/// Pipeline request and printable via toString() (the mcc --stats
/// path).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_PIPELINESTATS_H
#define IPRA_DRIVER_PIPELINESTATS_H

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace ipra {

/// Timing and artifact sizes for one module through both phases.
struct ModulePipelineStats {
  std::string Name;
  double FrontEndMs = 0; ///< Lex + parse + sema.
  double Phase1Ms = 0;   ///< IR, optimize, trial codegen, summary.
  double Phase2Ms = 0;   ///< IR, optimize, codegen, object emission.
  double PointsToMs = 0; ///< Points-to/escape analysis (inside both phases).
  size_t SummaryBytes = 0;
  size_t ObjectBytes = 0;
  unsigned Functions = 0;
  /// The module's artifact came out of the artifact cache instead of
  /// being recompiled.
  bool Phase1FromCache = false;
  bool Phase2FromCache = false;
};

/// Instrumentation for one Pipeline request.
struct PipelineStats {
  unsigned ThreadsUsed = 1;
  double FrontEndMs = 0;
  double Phase1Ms = 0;   ///< Zero when the analyzer is off.
  double AnalyzerMs = 0; ///< Whole analyzer step, including cache I/O.
  double Phase2Ms = 0;
  double LinkMs = 0;
  double TotalMs = 0;
  /// Analyzer sub-phase breakdown (from AnalyzerStats; on a cache hit
  /// these are the producing run's times).
  double AnalyzerRefSetsMs = 0;
  double AnalyzerWebsMs = 0; ///< Parallel per-global web discovery.
  double AnalyzerColoringMs = 0;
  double AnalyzerClustersMs = 0;
  double AnalyzerRegSetsMs = 0;
  /// How the analyzer step produced its database: "full" (cold run),
  /// "delta" (damage-region incremental re-analysis), or "cached"
  /// (artifact-cache hit). Empty when the analyzer is off, so --stats
  /// tags the sub-phase line on every path that ran the analyzer.
  std::string AnalyzerMode;
  /// Damage accounting from the delta analyzer (all zero unless
  /// PipelineConfig::DeltaAnalysis took the incremental path).
  int AnalyzerChangedProcs = 0;
  int AnalyzerDamagedSccs = 0;
  int AnalyzerTotalSccs = 0;
  int AnalyzerDamagedGlobals = 0;
  int AnalyzerTotalGlobals = 0;
  double AnalyzerReuseRatio = 0; ///< Web lists spliced in unchanged.
  /// Why a delta-enabled run fell back to a full analysis ("first
  /// analysis", "analyzer options changed", ...). Empty when the delta
  /// path ran, and when delta analysis is off.
  std::string AnalyzerFallbackReason;
  /// Points-to/escape analysis: per-module wall clock (summed across
  /// modules; zero for phase-1 cache hits) and solver counters. The
  /// refuted/resolved counts come from the analyzer's merge and are
  /// cached with the other analyzer counters.
  double PointsToMs = 0;
  unsigned long long PointsToConstraints = 0;
  unsigned long long PointsToIterations = 0;
  unsigned PointsToEscapesRefuted = 0;
  unsigned PointsToIndirectResolved = 0;
  /// GPG points-to (--points-to=gpg): phase-1 residue sizes summed
  /// across recompiled modules, plus the analyzer-side composer
  /// counters (composed procedures, call-site contexts inlined, and
  /// the facts GPG strengthened beyond the Andersen baseline; cached
  /// with the other analyzer counters).
  unsigned long long GPGUpdates = 0;
  unsigned long long GPGCallSites = 0;
  unsigned GPGComposedProcs = 0;
  unsigned GPGContexts = 0;
  unsigned GPGRefutedBeyondAndersen = 0;
  unsigned GPGResolvedBeyondAndersen = 0;
  /// Whole-program mod/ref census (DESIGN.md §15): globals the analyzer
  /// proved exactly read-only / write-only / dead, globals with a
  /// possible uninitialized read, and unreachable procedures. All zero
  /// when the analysis is off (--modref=off); cached with the other
  /// analyzer counters.
  unsigned ModRefReadOnlyGlobals = 0;
  unsigned ModRefWriteOnlyGlobals = 0;
  unsigned ModRefDeadGlobals = 0;
  unsigned ModRefUninitReadGlobals = 0;
  unsigned ModRefDeadProcs = 0;
  double ModRefMs = 0;
  size_t SummaryBytes = 0;  ///< All summary files.
  size_t DatabaseBytes = 0; ///< Serialized program database.
  size_t ObjectBytes = 0;   ///< All textual object files.
  /// Artifact-cache accounting for the incremental pipeline: per-phase
  /// hit/miss counts (one count per module, plus one per analyzer run)
  /// and the artifact bytes served from the cache instead of rebuilt.
  unsigned Phase1CacheHits = 0;
  unsigned Phase1CacheMisses = 0;
  unsigned AnalyzerCacheHits = 0;
  unsigned AnalyzerCacheMisses = 0;
  unsigned Phase2CacheHits = 0;
  unsigned Phase2CacheMisses = 0;
  size_t CacheBytesSaved = 0;
  /// In-memory cache occupancy and LRU-eviction accounting (snapshotted
  /// from the pipeline's ArtifactCache at the end of a full build; all
  /// zero when the cache is unbounded and nothing was ever evicted).
  size_t CacheMemBytes = 0;
  size_t CachePeakMemBytes = 0;
  unsigned long long CacheEvictions = 0;
  size_t CacheEvictedBytes = 0;
  unsigned long long CacheDiskEvictions = 0;
  std::vector<ModulePipelineStats> Modules;

  /// Multi-line human-readable report.
  std::string toString() const;
};

/// Measures wall-clock milliseconds into \p Target on destruction.
class ScopedTimerMs {
public:
  explicit ScopedTimerMs(double &Target)
      : Target(Target), Start(std::chrono::steady_clock::now()) {}
  ~ScopedTimerMs() {
    auto End = std::chrono::steady_clock::now();
    Target +=
        std::chrono::duration<double, std::milli>(End - Start).count();
  }
  ScopedTimerMs(const ScopedTimerMs &) = delete;
  ScopedTimerMs &operator=(const ScopedTimerMs &) = delete;

private:
  double &Target;
  std::chrono::steady_clock::time_point Start;
};

} // namespace ipra

#endif // IPRA_DRIVER_PIPELINESTATS_H
