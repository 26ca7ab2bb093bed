//===- BuildRequest.h - The one request type of the pipeline ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable request/response value pair every pipeline consumer
/// speaks: the mcc CLI, the in-process library (Pipeline::execute,
/// BuildService::handle) and the daemon wire protocol all carry a
/// BuildRequest in and a BuildResponse out. Extracted from the
/// PipelineConfig + ad-hoc per-phase argument lists so a request is one
/// self-contained value: which program it belongs to (the build
/// service's session key), which phase to run, the module sources or
/// phase inputs, and the full configuration.
///
/// Phase selection maps onto the paper's Figure 1:
///
///   Summary  compiler first phase over Modules -> one summary each
///   Analyze  program analyzer over Summaries   -> Database
///   Object   compiler second phase over Modules under Database
///   Link     link Objects                      -> Exe
///   Full     the fused incremental build of Modules (appends the
///            runtime module, runs all four stages through the cache)
///   Lint     phase 1 over Modules (cached), then the whole-program
///            mod/ref composition and the cross-module lint engine ->
///            one rendered diagnostic per Lints entry
///
/// The response carries only textual artifacts plus stats for the first
/// four fields — exactly what can cross the wire — and the in-process
/// Executable for Link/Full consumers.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_BUILDREQUEST_H
#define IPRA_DRIVER_BUILDREQUEST_H

#include "core/Analyzer.h"
#include "core/DeltaAnalyzer.h"
#include "driver/PipelineConfig.h"
#include "driver/PipelineStats.h"
#include "link/Object.h"
#include "sim/Simulator.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ipra {

/// Which pipeline stage a request runs.
enum class BuildPhase { Summary, Analyze, Object, Link, Full, Lint };

/// BuildPhase's wire names, in enumerator order, for the record codec.
inline constexpr const char *BuildPhaseNames[] = {
    "summary", "analyze", "object", "link", "full", "lint"};
inline const char *enumName(BuildPhase P) {
  return BuildPhaseNames[static_cast<int>(P)];
}
inline bool enumFromName(std::string_view Name, BuildPhase &P) {
  return enumFromTable(Name, BuildPhaseNames, P);
}

/// One self-contained unit of work for the pipeline.
struct BuildRequest {
  /// Program identity: the build service keys its sessions (retained
  /// delta state, coalescing lock) on this. Empty is a valid anonymous
  /// program id.
  std::string Program;
  BuildPhase Phase = BuildPhase::Full;
  PipelineConfig Config;
  /// Module sources, for Summary / Object / Full.
  std::vector<SourceFile> Modules;
  /// Summary-file texts, for Analyze.
  std::vector<std::string> Summaries;
  /// Program-database text, for Object (empty = baseline convention).
  std::string Database;
  /// Object-file texts, for Link.
  std::vector<std::string> Objects;
  /// Profile feedback for Analyze / Full (consumed when
  /// Config.UseProfile is set).
  std::optional<ProfileData> Profile;

  static BuildRequest full(PipelineConfig Config,
                           std::vector<SourceFile> Modules,
                           std::string Program = "");
  static BuildRequest summary(PipelineConfig Config,
                              std::vector<SourceFile> Modules,
                              std::string Program = "");
  static BuildRequest analyze(PipelineConfig Config,
                              std::vector<std::string> Summaries,
                              std::string Program = "");
  static BuildRequest object(PipelineConfig Config,
                             std::vector<SourceFile> Modules,
                             std::string Database,
                             std::string Program = "");
  static BuildRequest link(std::vector<std::string> Objects,
                           std::string Program = "");
  static BuildRequest lint(PipelineConfig Config,
                           std::vector<SourceFile> Modules,
                           std::string Program = "");

  /// The wire fields with their keys (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("program", S.Program);
    V("phase", S.Phase);
    V("config", S.Config);
    V("modules", S.Modules);
    V("summaries", S.Summaries);
    V("database", S.Database);
    V("objects", S.Objects);
    V("profile", S.Profile);
  }
};

/// A build reply's stats object (support/Json.h's Record): the
/// PipelineStats fields of \p Response (a BuildResponse, or its const
/// form), then the delta fallback reason, which wire clients read there
/// too.
template <typename Response> struct ReplyStats {
  Response &R;

  template <typename Self, typename Visit>
  static void fields(Self &W, Visit &&V) {
    PipelineStats::fields(W.R.Stats, V);
    V("analyzer-fallback-reason", W.R.Delta.FallbackReason);
  }
};

/// The payload answered for a BuildRequest (the Status rides in the
/// enclosing Result<BuildResponse>).
struct BuildResponse {
  std::string Program;
  BuildPhase Phase = BuildPhase::Full;
  /// One summary per requested module (Summary), or the summaries the
  /// fused build produced (Full).
  std::vector<std::string> Summaries;
  std::string Database;
  /// One object per requested module (Object), or every module of the
  /// fused build including the runtime (Full).
  std::vector<std::string> Objects;
  /// Linked executable, for Link/Full in-process consumers. Never
  /// serialized; wire clients re-link the textual objects locally.
  Executable Exe;
  AnalyzerStats Analyzer;
  /// Damage-region accounting for Analyze/Full when delta analysis ran.
  DeltaStats Delta;
  /// Rendered lint diagnostics (Lint phase): one
  /// "lint: <kind>: <symbol>: <message>" line each, sorted. Empty means
  /// the program is clean.
  std::vector<std::string> Lints;
  /// The same diagnostics as JSON objects (machine consumers).
  std::vector<std::string> LintsJson;
  PipelineStats Stats;
  /// Every artifact this phase produced was served from the cache.
  bool FromCache = false;

  /// The wire fields with their keys (support/Json.h's Record): all but
  /// the executable.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("program", S.Program);
    V("phase", S.Phase);
    V("summaries", S.Summaries);
    V("database", S.Database);
    V("objects", S.Objects);
    V("lints", S.Lints);
    V("lints-json", S.LintsJson);
    V("from-cache", S.FromCache);
    V("analyzer", S.Analyzer);
    V("delta", S.Delta);
    ReplyStats<Self> Stats{S};
    V("stats", Stats);
  }
};

} // namespace ipra

#endif // IPRA_DRIVER_BUILDREQUEST_H
