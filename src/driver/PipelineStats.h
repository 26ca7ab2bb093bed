//===- PipelineStats.h - Pipeline timing instrumentation -------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumentation for one pipeline run: per-phase and per-module
/// timings, exact work counters, artifact byte counts, cache accounting
/// and the thread count. The analyzer's counters live in AnalyzerStats
/// and the delta analyzer's in DeltaStats. toString() (mcc --stats)
/// prints all three by walking their field lists (support/Record.h), so
/// a new counter is one member and one row.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_PIPELINESTATS_H
#define IPRA_DRIVER_PIPELINESTATS_H

#include "driver/ArtifactCache.h"
#include "opt/Passes.h"

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace ipra {

struct AnalyzerStats;
struct DeltaStats;

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

  /// Every field with its key (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("name", S.Name);
    V("front-end-ms", S.FrontEndMs);
    V("phase1-ms", S.Phase1Ms);
    V("phase2-ms", S.Phase2Ms);
    V("points-to-ms", S.PointsToMs);
    V("summary-bytes", S.SummaryBytes);
    V("object-bytes", S.ObjectBytes);
    V("functions", S.Functions);
    V("phase1-from-cache", S.Phase1FromCache);
    V("phase2-from-cache", S.Phase2FromCache);
  }
};

/// Exact work counters of the level-2 optimizer's round loops and the
/// register allocator, summed over every function a request compiled
/// (phase 1's trial code generation included; zero for modules served
/// from the cache). Equal at any thread count and run to run.
struct WorkStats {
  OptStats Opt;
  unsigned long long RegAllocRounds = 0;
  unsigned long long SpilledVRegs = 0;

  /// Every field with its key; PipelineStats' list flattens these rows.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    OptStats::fields(S.Opt, V);
    V("regalloc-rounds", S.RegAllocRounds);
    V("spilled-vregs", S.SpilledVRegs);
  }
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
  /// How the analyzer step produced its database: "full" (cold run),
  /// "delta" (damage-region incremental re-analysis), or "cached"
  /// (artifact-cache hit). Empty when the analyzer is off, so --stats
  /// tags the sub-phase line on every path that ran the analyzer.
  std::string AnalyzerMode;
  /// Points-to/escape analysis: per-module wall clock (summed across
  /// modules; zero for phase-1 cache hits) and solver counters.
  double PointsToMs = 0;
  unsigned long long PointsToConstraints = 0;
  unsigned long long PointsToIterations = 0;
  /// GPG points-to (--points-to=gpg): phase-1 residue sizes summed
  /// across recompiled modules.
  unsigned long long GPGUpdates = 0;
  unsigned long long GPGCallSites = 0;
  WorkStats Work;
  size_t SummaryBytes = 0;  ///< All summary files.
  /// Summary texts this request ran through readSummary. An analyze
  /// request parses only texts its analyzer session has not seen.
  unsigned SummariesParsed = 0;
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
  /// The pipeline's ArtifactCache, snapshotted at the end of a full
  /// build (occupancy and LRU-eviction gauges for --stats).
  ArtifactCacheStats Cache;
  std::vector<ModulePipelineStats> Modules;

  /// Every field with its key (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("threads-used", S.ThreadsUsed);
    V("front-end-ms", S.FrontEndMs);
    V("phase1-ms", S.Phase1Ms);
    V("analyzer-ms", S.AnalyzerMs);
    V("phase2-ms", S.Phase2Ms);
    V("link-ms", S.LinkMs);
    V("total-ms", S.TotalMs);
    V("analyzer-mode", S.AnalyzerMode);
    V("points-to-ms", S.PointsToMs);
    V("points-to-constraints", S.PointsToConstraints);
    V("points-to-iterations", S.PointsToIterations);
    V("gpg-updates", S.GPGUpdates);
    V("gpg-call-sites", S.GPGCallSites);
    WorkStats::fields(S.Work, V);
    V("summary-bytes", S.SummaryBytes);
    V("summaries-parsed", S.SummariesParsed);
    V("database-bytes", S.DatabaseBytes);
    V("object-bytes", S.ObjectBytes);
    V("phase1-cache-hits", S.Phase1CacheHits);
    V("phase1-cache-misses", S.Phase1CacheMisses);
    V("analyzer-cache-hits", S.AnalyzerCacheHits);
    V("analyzer-cache-misses", S.AnalyzerCacheMisses);
    V("phase2-cache-hits", S.Phase2CacheHits);
    V("phase2-cache-misses", S.Phase2CacheMisses);
    V("cache-bytes-saved", S.CacheBytesSaved);
    V("cache", S.Cache);
    V("modules", S.Modules);
  }

  /// The mcc --stats text of this run, the analyzer's counters \p A and
  /// the delta analyzer's \p D: a "pipeline:", "analyzer:" and "delta:"
  /// line of key=value pairs under the field lists' keys, each nested
  /// record and module indented on its own line below its parent.
  std::string toString(const AnalyzerStats &A, const DeltaStats &D) const;
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
