//===- DeltaAnalyzer.h - Sub-linear incremental re-analysis ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The delta analyzer: when one module's summary changes between
/// analyzer runs, re-deriving the whole program database from scratch
/// costs O(program) even though the edit's influence is usually local.
/// This class retains the previous run's call graph, reference sets and
/// per-global web lists, diffs the new summaries against the old ones
/// (SummaryDiff), maps the delta onto the Tarjan SCC condensation to
/// obtain a minimal *damage region*, and recomputes only the refsets
/// and webs whose inputs lie in that region — splicing the results into
/// the retained state so the output stays byte-identical to a cold full
/// analysis (the §7.1 "keeping summary data up to date" cost model,
/// driven sub-linear).
///
/// Damage derivation (why byte-identity holds — see DESIGN.md §11):
///
///  * applyProcDelta patches the graph in place only when the edit is
///    expressible without re-laying node ids or the eligible-global
///    universe; anything else falls back to a cold full analysis,
///    which is trivially identical.
///  * RefSets::applyDelta recomputes P_REF/C_REF per SCC with worklist
///    sweeps over the condensation, reading retained values at the
///    region boundary (exact, because every node's row equals its SCC's
///    shared value). Every global whose L/P/C_REF bit flips anywhere is
///    collected in `Touched`.
///  * A retained web list of global g is reusable iff g is untouched
///    AND no web of g (kept or discarded) intersects the node-damage
///    set NDP: web discovery for g reads only g's rows (unchanged) plus
///    adjacency, SCC membership, invocation counts, edge counts and
///    callee leaf-ness at the nodes the old discovery visited — all
///    unchanged outside NDP, so discovery replays identically.
///  * Coloring, clusters, register sets, §7.6.2 propagation and
///    database assembly are recomputed in full by the shared
///    finishFromWebs stage — they are a small fraction of analyzer
///    time, and running the identical code on identical inputs is the
///    strongest identity argument available.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_DELTAANALYZER_H
#define IPRA_CORE_DELTAANALYZER_H

#include "core/Analyzer.h"
#include "core/Webs.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ipra {

namespace analyzer_detail {
struct AnalysisState;
} // namespace analyzer_detail

/// How the last DeltaAnalyzer::analyze call produced its database.
enum class DeltaMode {
  Full,        ///< Cold full analysis (first run, or a fallback).
  Incremental, ///< Damage-region re-analysis over retained state.
};

/// DeltaMode's key names, in enumerator order, for the record codec.
inline constexpr const char *DeltaModeNames[] = {"full", "incremental"};
inline const char *enumName(DeltaMode M) {
  return DeltaModeNames[static_cast<int>(M)];
}
inline bool enumFromName(std::string_view Name, DeltaMode &M) {
  return enumFromTable(Name, DeltaModeNames, M);
}

/// Observability for one analyze() call.
struct DeltaStats {
  DeltaMode Mode = DeltaMode::Full;
  /// Why a full analysis ran ("first analysis", or the structural
  /// condition the delta path cannot express). Empty when incremental.
  std::string FallbackReason;
  int ChangedProcs = 0;    ///< Patched call-graph nodes.
  int DamagedSccs = 0;     ///< SCCs whose P_REF/C_REF were recomputed.
  int TotalSccs = 0;
  int DamagedGlobals = 0;  ///< Globals whose webs were re-discovered.
  int TotalGlobals = 0;
  /// Fraction of per-global web lists spliced in unchanged.
  double reuseRatio() const {
    return TotalGlobals ? 1.0 - static_cast<double>(DamagedGlobals) /
                                    TotalGlobals
                        : 1.0;
  }

  /// Every field with its key (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("mode", S.Mode);
    V("fallback-reason", S.FallbackReason);
    V("changed-procs", S.ChangedProcs);
    V("damaged-sccs", S.DamagedSccs);
    V("total-sccs", S.TotalSccs);
    V("damaged-globals", S.DamagedGlobals);
    V("total-globals", S.TotalGlobals);
  }
};

/// A primed analyzer's retained run as it is persisted (support/Json.h's
/// Record): every output-affecting option, the profile, the summaries
/// (writeSummary texts) and the per-global web lists. The call graph,
/// reference sets and mod/ref verdicts are not in it: they are
/// deterministic functions of the summaries and options, and rebuilding
/// them costs far less than the web discovery the run lets a restore
/// skip.
struct RetainedRun {
  AnalyzerOptions Options;
  CallProfile Profile;
  std::vector<std::string> Summaries;
  /// Every discovered web, discarded ones included, in global-id order.
  std::vector<Web> Webs;
  /// Global g's webs are Webs[WebStart[g]..WebStart[g+1]); empty unless
  /// the promotion mode is webs or greedy.
  std::vector<int> WebStart;

  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("options", S.Options);
    V("profile", S.Profile);
    V("summaries", S.Summaries);
    V("webs", S.Webs);
    V("web-start", S.WebStart);
  }
};

/// Stateful wrapper around the program analyzer. The first analyze()
/// primes retained state with a full run; subsequent calls diff the
/// summaries and take the damage-region path when the edit is
/// expressible, falling back to a full run (and re-priming) otherwise.
/// Either way the returned database is byte-identical to
/// runAnalyzer(Summaries, Options, Profile).
class DeltaAnalyzer {
public:
  DeltaAnalyzer();
  ~DeltaAnalyzer();
  DeltaAnalyzer(DeltaAnalyzer &&) noexcept;
  DeltaAnalyzer &operator=(DeltaAnalyzer &&) noexcept;

  /// Analyzes \p Summaries, incrementally when possible. The database
  /// is the caller's: the analyzer retains the inputs of the final
  /// stage (graph, reference sets, verdicts, colored webs), not its
  /// output. Changing \p Options (other than NumThreads) or \p Profile
  /// between calls forces a full run.
  ProgramDatabase analyze(SummarySet Summaries,
                          const AnalyzerOptions &Options,
                          const CallProfile &Profile = {});
  /// The same over a copy of \p Summaries.
  ProgramDatabase analyze(const std::vector<ModuleSummary> &Summaries,
                          const AnalyzerOptions &Options,
                          const CallProfile &Profile = {});

  /// Stats of the last analyze() call. The counters describe the
  /// analyzed program and equal runAnalyzer's; the sub-phase timings
  /// cover only the work this call did (damage-region timings on the
  /// incremental path, 0 for a skipped step).
  const AnalyzerStats &stats() const { return Stats; }
  const DeltaStats &deltaStats() const { return Delta; }
  bool primed() const { return State != nullptr; }

  /// Version of the retained-run persistence format below. Bumped on
  /// any layout change; readers reject other versions (cold fallback).
  /// Version 5: a one-line JSON header (format, version, the FNV-1a
  /// digest of the run text) and the run, json::encode of RetainedRun.
  /// Versions 1-4 were line-oriented texts with a trailing database
  /// section; their first line is not JSON, so they are rejected.
  static constexpr int RetainedFormatVersion = 5;

  /// Serializes the primed retained run as a versioned blob a later
  /// process can restoreRetained() from (warm daemon restarts, DESIGN.md
  /// §13). Returns false when there is nothing persistable (not primed,
  /// or a configuration retainable() rejects).
  bool serializeRetained(std::string &Out) const;

  /// Rebuilds retained state from a serializeRetained() blob. On any
  /// mismatch — wrong version or digest, a run that does not decode,
  /// summaries that fail to parse, webs outside the rebuilt graph — it
  /// returns false with \p Error set and leaves the analyzer unprimed,
  /// so the next analyze() is an ordinary cold prime (never a wrong
  /// result). On success the analyzer is primed exactly as if it had
  /// analyzed the serialized summaries in this process: the next
  /// analyze() diffs against them and takes the §11 delta path.
  bool restoreRetained(const std::string &Text, std::string &Error);

private:
  /// The incremental path: patches the retained state over the damage
  /// region of \p Summaries (already strengthened) and fills the timings
  /// and DeltaStats of the work it did. Returns false — with \p Reason
  /// set and *no retained state mutated* — when the delta is
  /// inexpressible; the caller then re-primes.
  bool tryIncremental(const std::vector<ModuleSummary> &Summaries,
                      const CallProfile &Profile, std::string &Reason);
  /// True when retained-state splicing supports the configured options.
  bool retainable(std::string &Reason) const;

  AnalyzerOptions Opts;
  CallProfile Prof;
  /// The retained run (AnalyzerInternal.h), null until primed: the
  /// strengthened summaries it analyzed, their call graph, reference
  /// sets and §15 verdicts, and the discovered webs with their
  /// per-global segments, discarded webs included (the splice must
  /// reproduce buildWebs' full list, and a discarded web still marks
  /// where its global's reference region lies for damage testing). The
  /// webs carry the last run's register assignments; finishFromWebs
  /// resets them before coloring again. tryIncremental recomputes the
  /// verdicts on the patched graph and treats any global whose
  /// dead/read-only predicate flips as damaged — discovery reads exactly
  /// those two predicates.
  std::unique_ptr<analyzer_detail::AnalysisState> State;
  AnalyzerStats Stats;
  DeltaStats Delta;
};

} // namespace ipra

#endif // IPRA_CORE_DELTAANALYZER_H
