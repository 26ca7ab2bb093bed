//===- AnalyzerSession.h - Retained delta-analysis ownership ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ownership home for retained incremental-analysis state. The
/// DeltaAnalyzer keeps the previous run's call graph, refsets and webs
/// so a one-module edit re-analyzes only its damage region — which
/// makes it the hot per-program state a long-lived build service must
/// keep resident and serialize access to. AnalyzerSession wraps one
/// DeltaAnalyzer behind a mutex plus session counters:
///
///  - a Pipeline created without an explicit session owns a private
///    one, preserving the old behaviour (delta reuse scoped to the
///    Pipeline object's lifetime);
///  - the build service creates one session per program and hands it to
///    every Pipeline it (re)builds for that program, so the retained
///    state survives Pipeline reconstruction and concurrent requests
///    for the same program coalesce onto one analyzer state instead of
///    racing or re-priming.
///
/// The session also keeps the summary texts of its last successful
/// request and their parses, so a request that differs in one module
/// parses one summary (parseSummaries).
///
/// The mutex serializes analyze() and parseSummaries() calls. The
/// returned Outcome is a value (the database is moved out of the
/// analyzer, which does not retain it), and a request's parsed
/// summaries are shared read-only, so callers never hold references
/// into state another request may overwrite.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_ANALYZERSESSION_H
#define IPRA_CORE_ANALYZERSESSION_H

#include "core/DeltaAnalyzer.h"
#include "support/Status.h"

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ipra {

/// Cumulative per-session accounting, for service observability.
struct AnalyzerSessionCounters {
  unsigned long long AnalyzerRuns = 0; ///< analyze() calls served.
  unsigned long long DeltaHits = 0;    ///< Damage-region incremental runs.
  unsigned long long FullRuns = 0;     ///< Cold runs (first or fallback).
  unsigned long long SessionsRestored = 0; ///< Persisted reloads applied.
  unsigned long long RestoresRejected = 0; ///< Stale/corrupt blobs skipped.

  /// Every field with its key.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("analyzer-runs", S.AnalyzerRuns);
    V("delta-hits", S.DeltaHits);
    V("full-runs", S.FullRuns);
    V("sessions-restored", S.SessionsRestored);
    V("restores-rejected", S.RestoresRejected);
  }
};

/// A lockable, shareable home for one program's retained delta state.
class AnalyzerSession {
public:
  /// Parses \p Texts, in order, into \p Out. A text byte-equal to one
  /// of the last successful request's reuses that parse; only the
  /// others go through readSummary (each adds one to \p Parsed).
  /// \p Check runs on every summary, reused or not, and says why it is
  /// unacceptable (empty: it is fine). The first failure in text order
  /// is returned, prefixed "bad summary file: ", and leaves the kept set
  /// unchanged; a success replaces it. The kept set is one program's
  /// summaries and is not persisted: a restarted session parses all.
  Status
  parseSummaries(const std::vector<std::string> &Texts,
                 const std::function<std::string(const ModuleSummary &)> &Check,
                 SummarySet &Out, unsigned &Parsed) {
    std::lock_guard<std::mutex> Lock(M);
    auto Next = std::make_shared<std::vector<ModuleSummary>>(Texts.size());
    for (size_t I = 0; I < Texts.size(); ++I) {
      ModuleSummary &S = (*Next)[I];
      // A reused parse is copied, not moved: the delta analyzer still
      // holds the kept set to diff this one against.
      if (int J = keptIndexOf(Texts[I], I); J >= 0) {
        S = (*Kept)[static_cast<size_t>(J)];
      } else {
        ++Parsed;
        std::string Error;
        if (!readSummary(Texts[I], S, Error))
          return Status::error("bad summary file: " + Error);
      }
      if (std::string Why = Check(S); !Why.empty())
        return Status::error("bad summary file: " + Why);
    }
    Kept = Next;
    KeptTexts = Texts;
    Out = std::move(Next);
    return Status::success();
  }

  /// Value snapshot of one analyze() call.
  struct Outcome {
    ProgramDatabase DB;
    AnalyzerStats Stats;
    DeltaStats Delta;
  };

  /// Runs the retained-state analyzer (incremental when the edit is
  /// expressible, cold otherwise). Thread-safe; concurrent callers
  /// serialize here, which is exactly the same-program coalescing the
  /// build service needs.
  Outcome analyze(SummarySet Summaries, const AnalyzerOptions &Options,
                  const CallProfile &Profile) {
    std::lock_guard<std::mutex> Lock(M);
    // Lazy warm-restart reload: a pending persisted blob is consumed by
    // the first analyze() call, on the request path rather than at
    // session creation. A blob that fails to restore (stale version,
    // mismatched options, corrupt file) is simply dropped — this call
    // then primes cold, which is always correct.
    if (!Pending.empty()) {
      std::string Blob = std::move(Pending);
      Pending.clear();
      std::string Err;
      if (!Delta.primed() && Delta.restoreRetained(Blob, Err))
        ++Counters.SessionsRestored;
      else
        ++Counters.RestoresRejected;
    }
    Outcome Out;
    Out.DB = Delta.analyze(std::move(Summaries), Options, Profile);
    Out.Stats = Delta.stats();
    Out.Delta = Delta.deltaStats();
    ++Counters.AnalyzerRuns;
    if (Out.Delta.Mode == DeltaMode::Incremental)
      ++Counters.DeltaHits;
    else
      ++Counters.FullRuns;
    return Out;
  }
  /// The same over a copy of \p Summaries.
  Outcome analyze(const std::vector<ModuleSummary> &Summaries,
                  const AnalyzerOptions &Options,
                  const CallProfile &Profile) {
    return analyze(std::make_shared<const std::vector<ModuleSummary>>(Summaries),
                   Options, Profile);
  }

  bool primed() const {
    std::lock_guard<std::mutex> Lock(M);
    return Delta.primed();
  }

  AnalyzerSessionCounters counters() const {
    std::lock_guard<std::mutex> Lock(M);
    return Counters;
  }

  /// Parks a persisted retained-run blob (DeltaAnalyzer's
  /// serializeRetained format) to be restored lazily by the first
  /// analyze() call. Restoring there instead of here keeps session
  /// creation cheap and puts the rebuild cost on the request that
  /// benefits from it.
  void setPendingRestore(std::string Blob) {
    std::lock_guard<std::mutex> Lock(M);
    Pending = std::move(Blob);
  }

  /// Serializes the retained run for warm restarts; false when there
  /// is nothing to persist (never primed, or a pending blob was never
  /// consumed — then the original file is still on disk and current).
  bool serializeRetained(std::string &Out) const {
    std::lock_guard<std::mutex> Lock(M);
    return Delta.serializeRetained(Out);
  }

private:
  /// Index of the kept text byte-equal to \p Text, trying \p Hint (the
  /// same position) first; -1 when there is none.
  int keptIndexOf(const std::string &Text, size_t Hint) const {
    if (Hint < KeptTexts.size() && KeptTexts[Hint] == Text)
      return static_cast<int>(Hint);
    for (size_t J = 0; J < KeptTexts.size(); ++J)
      if (KeptTexts[J] == Text)
        return static_cast<int>(J);
    return -1;
  }

  mutable std::mutex M;
  DeltaAnalyzer Delta;
  /// The last successful parseSummaries() request: its texts and their
  /// parses, position for position.
  std::vector<std::string> KeptTexts;
  SummarySet Kept;
  AnalyzerSessionCounters Counters;
  std::string Pending; ///< Unconsumed persisted blob, if any.
};

} // namespace ipra

#endif // IPRA_CORE_ANALYZERSESSION_H
