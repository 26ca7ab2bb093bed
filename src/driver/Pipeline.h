//===- Pipeline.h - Phase-granular incremental pipeline --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline facade: one entry point, execute(), that maps a
/// BuildRequest to a Result<BuildResponse>. The CLI, the in-process
/// library, and the build-service daemon all speak the same request
/// type, so a build means the same thing no matter which door it comes
/// in through: mcc sends every mode as one request, either here or to
/// the daemon, and prints from the one response.
///
/// Two adapters remain, build() and analyze(), with their BuildResult
/// and DatabaseResult. They only rename response fields; they stay
/// because the benchmark's corpus and analyze-edit operations call them,
/// and go with the next change to the benchmark (ROADMAP item 11).
///
/// The fused build() runs all four paper phases (Figure 1) with
/// content-addressed caching:
///
///  - phase 1 is keyed on the module's source text and the compile-side
///    configuration fingerprint, so an edit reruns phase 1 for exactly
///    the edited module;
///  - the analyzer is keyed on all summary texts plus the analyzer-side
///    fingerprint and the profile;
///  - phase 2 is keyed on the source text, the compile fingerprint, and
///    the module's *database slice* (ProgramDatabase::sliceFor) — the
///    projection of the database that can affect this module's code —
///    so a database change recompiles only the modules whose slice
///    actually moved (the recompilation avoidance §6 calls for).
///
/// Cache entries are validated by parsing; a corrupt or truncated entry
/// is a miss that gets recomputed and overwritten. Failures are never
/// cached. Cached and cold builds produce byte-identical artifacts at
/// every thread count.
///
/// The artifact cache and the retained delta-analysis state are held by
/// shared_ptr: a Pipeline constructed bare owns private instances
/// (matching the old behaviour), while the build service injects one
/// shared cache across all programs and one AnalyzerSession per program
/// so hot state survives Pipeline reconstruction.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_PIPELINE_H
#define IPRA_DRIVER_PIPELINE_H

#include "core/Analyzer.h"
#include "core/AnalyzerSession.h"
#include "core/DeltaAnalyzer.h"
#include "driver/ArtifactCache.h"
#include "driver/BuildRequest.h"
#include "driver/PipelineConfig.h"
#include "driver/PipelineStats.h"
#include "link/Object.h"
#include "sim/Simulator.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

namespace ipra {

/// The program analyzer over all summaries.
struct DatabaseResult : Status {
  std::string DatabaseText;
  AnalyzerStats Stats;
  bool FromCache = false;
  /// "full", "delta", or "cached" — how the database was produced.
  std::string Mode;
  /// Damage accounting when PipelineConfig::DeltaAnalysis is set.
  DeltaStats Delta;
};

/// The fused four-stage build.
struct BuildResult : Status {
  Executable Exe;
  AnalyzerStats Analyzer;
  /// Damage accounting when PipelineConfig::DeltaAnalysis is set.
  DeltaStats Delta;
  PipelineStats Stats;
  std::vector<std::string> SummaryFiles;
  std::string DatabaseFile;
  /// One textual object file per module (including the runtime module).
  std::vector<std::string> ObjectFiles;
};

/// The two-pass pipeline under one configuration, with an artifact
/// cache that persists for the lifetime of the object (and on disk when
/// the configuration names a CacheDir).
class Pipeline {
public:
  /// A bare Pipeline owns a private cache (at Config.CacheDir) and a
  /// private analyzer session. Pass \p SharedCache / \p SharedSession
  /// to share hot state across Pipelines — the build service shares one
  /// cache service-wide and one session per program.
  explicit Pipeline(PipelineConfig Config,
                    std::shared_ptr<ArtifactCache> SharedCache = nullptr,
                    std::shared_ptr<AnalyzerSession> SharedSession = nullptr);

  const PipelineConfig &config() const { return Config; }
  ArtifactCache &cache() { return *Cache; }
  const std::shared_ptr<ArtifactCache> &cachePtr() const { return Cache; }
  const std::shared_ptr<AnalyzerSession> &session() const { return Session; }

  /// The canonical entry point: runs the phase \p Req selects over its
  /// inputs. Fails with code "config-mismatch" when the request was
  /// built for a different configuration fingerprint (Link requests
  /// skip the check — linking is configuration-independent).
  Result<BuildResponse> execute(const BuildRequest &Req);

  /// Program analyzer over summary files. Rejects summaries whose
  /// stamped fingerprint disagrees with this configuration. The cache
  /// key covers every summary text and the profile, so it only hits
  /// when nothing the analyzer sees has changed.
  DatabaseResult analyze(const std::vector<std::string> &SummaryTexts,
                         const ProfileData *Profile = nullptr);

  /// The fused incremental build: appends the runtime module, runs
  /// phase 1 / analyzer / phase 2 through the cache, links. Cache hit
  /// and miss counts land in Stats (PipelineStats).
  BuildResult build(const std::vector<SourceFile> &Sources,
                    const ProfileData *Profile = nullptr);

private:
  /// Per-phase bodies behind execute(); each fills the response fields
  /// its phase produces.
  Status executeSummary(const BuildRequest &Req, BuildResponse &Resp);
  Status executeAnalyze(const BuildRequest &Req, BuildResponse &Resp);
  Status executeObject(const BuildRequest &Req, BuildResponse &Resp);
  Status executeLink(const BuildRequest &Req, BuildResponse &Resp);
  Status executeFull(const BuildRequest &Req, BuildResponse &Resp);
  Status executeLint(const BuildRequest &Req, BuildResponse &Resp);

  /// The modules one request compiles and what the phases produced for
  /// them (defined in Pipeline.cpp).
  struct Batch;

  /// Compiler first phase over every module of \p B, the one body
  /// behind the Summary, Lint and Full requests: cache lookup, front end
  /// on demand, lowering, trial codegen fanned out per function, summary
  /// emission, cache publish. Keeps the IR files when B asks for them.
  Status summarize(Batch &B);
  /// Compiler second phase over every module of \p B under \p DB (null:
  /// the standard linkage convention), the one body behind the Object
  /// and Full requests. \p Keys holds each module's cache key, which
  /// names the database part it depends on. Resumes from B's IR file
  /// where phase 1 left one and lowers from source otherwise.
  Status compileObjects(Batch &B, const ProgramDatabase *DB,
                        const std::vector<std::string> &Keys);

  /// Shared by the analyze and full phases: runs the analyzer through
  /// the cache (and, when Config.DeltaAnalysis is set, through the
  /// retained delta session on a miss). Fills \p DB and the response's
  /// Database, Analyzer and Delta, and records the hit or miss, the
  /// mode ("cached", "delta" or "full") and the database size in its
  /// Stats. A miss writes the database text once and moves the produced
  /// database into \p DB; only a cache hit parses a database.
  void analyzeCached(const SummarySet &Summaries,
                     const std::vector<std::string> &SummaryTexts,
                     const ProfileData *Profile, ProgramDatabase &DB,
                     BuildResponse &Resp);

  PipelineConfig Config;
  std::shared_ptr<ArtifactCache> Cache;
  /// Retained-state incremental analyzer, used on analyzer cache misses
  /// when Config.DeltaAnalysis is set, and the parsed summaries of the
  /// last analyze request. Session-owned so both can outlive this
  /// Pipeline when the session is shared.
  std::shared_ptr<AnalyzerSession> Session;
  /// Fingerprints are fixed at construction; the three are the cache
  /// key ingredients for phase 1+2, the analyzer, and artifact
  /// stamping respectively.
  std::string CompileFP, AnalyzerFP, FullFP;
};

} // namespace ipra

#endif // IPRA_DRIVER_PIPELINE_H
