//===- AnalyzerInternal.h - Shared analyzer pipeline stages ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer pipeline split into its two halves. The cold front half
/// has one body: strengthened() (GPG mode) hands the summaries to
/// analyzeCold(), which builds the call graph, the reference sets and
/// the §15 mod/ref verdicts (the AnalysisState constructor) and then
/// discovers the webs. finishFromWebs turns an AnalysisState into the
/// database. runAnalyzer is exactly that sequence. The delta analyzer
/// keeps the AnalysisState between runs and patches it over the damage
/// region; restoreRetained runs the constructor alone and takes the webs
/// from the persisted blob. Internal header — not part of the public
/// analyzer API.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_ANALYZERINTERNAL_H
#define IPRA_CORE_ANALYZERINTERNAL_H

#include "core/Analyzer.h"

#include <chrono>
#include <memory>

namespace ipra {
namespace analyzer_detail {

using Clock = std::chrono::steady_clock;

/// Milliseconds since \p T0, for the AnalyzerStats sub-phase timings.
inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// The web options actually used for discovery: the user's knobs with
/// the analyzer-level closed-world assumption and thread count folded
/// in. The delta analyzer must re-discover damaged globals under
/// exactly these options to reproduce cold output.
WebOptions webOptionsFor(const AnalyzerOptions &Options);

/// GPG mode: a new set with \p Summaries' escape verdicts and indirect
/// target sets strengthened by the bottom-up composition (GPGCompose.h),
/// its counters in \p Stats. Otherwise, or when the summaries carry no
/// residues, \p Summaries itself, uncopied. Idempotent.
SummarySet strengthened(SummarySet Summaries, const AnalyzerOptions &Options,
                        GPGComposeStats &Stats);

/// Everything finishFromWebs reads: the cold analysis up to web
/// discovery. RS refers into CG, so a state never moves; whoever keeps
/// one across calls holds it by pointer.
struct AnalysisState {
  /// The call graph over \p Summaries (already strengthened), its
  /// reference sets and, when Options.ModRef is set, the mod/ref
  /// verdicts. Fills Stats.RefSetsMs, Stats.ModRefMs and the counters
  /// countInto fills. The web list starts empty.
  AnalysisState(SummarySet Summaries, const AnalyzerOptions &Options,
                const CallProfile &Profile, AnalyzerStats &Stats);
  AnalysisState(const AnalysisState &) = delete;
  AnalysisState &operator=(const AnalysisState &) = delete;

  /// Fills the counters that describe this state: EligibleGlobals,
  /// EscapesRefuted, IndirectCallersResolved and the §15 verdict census.
  void countInto(AnalyzerStats &Stats) const;

  /// MR when \p Options asks for the verdicts, else null.
  const ModRefInfo *modRef(const AnalyzerOptions &Options) const {
    return Options.ModRef ? &MR : nullptr;
  }

  /// The summaries CG was built from, in their strengthened form.
  SummarySet Summaries;
  CallGraph CG;
  RefSets RS;
  /// The §15 verdicts; empty when Options.ModRef is off.
  ModRefInfo MR;
  /// Every discovered web, discarded ones included, numbered by
  /// position. Blanket webs arrive colored; the others carry the
  /// coloring of the last finishFromWebs.
  std::vector<Web> Webs;
  /// Global g's webs are Webs[WebStart[g]..WebStart[g+1]) under webs or
  /// greedy promotion without re-merging; empty otherwise.
  std::vector<int> WebStart;

private:
  /// The public constructor's body; \p Start is taken before CG is built.
  AnalysisState(SummarySet Summaries, const AnalyzerOptions &Options,
                const CallProfile &Profile, AnalyzerStats &Stats,
                Clock::time_point Start);
};

/// The cold front half: an AnalysisState over \p Summaries (already
/// strengthened), then web discovery per Options.Promotion (none for
/// None; blanket webs arrive pre-colored). With Options.ModRef the
/// verdicts feed Webs/Greedy discovery (Webs.h). Fills Stats.WebsMs.
std::unique_ptr<AnalysisState> analyzeCold(SummarySet Summaries,
                                           const AnalyzerOptions &Options,
                                           const CallProfile &Profile,
                                           AnalyzerStats &Stats);

/// Everything downstream of web discovery: interference coloring per
/// Options.Promotion (webs carrying an earlier run's registers are reset
/// first), cluster identification, register-set computation, §7.6.2
/// caller-saves propagation, and database assembly, with the §15
/// verdicts published as the per-global modref records when
/// Options.ModRef is set. On return State.Webs carry this run's register
/// assignments. Fills the coloring/cluster/regset timings and counters
/// of \p Stats.
ProgramDatabase finishFromWebs(AnalysisState &State,
                               const AnalyzerOptions &Options,
                               AnalyzerStats &Stats);

} // namespace analyzer_detail
} // namespace ipra

#endif // IPRA_CORE_ANALYZERINTERNAL_H
