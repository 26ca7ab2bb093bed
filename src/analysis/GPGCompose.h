//===- GPGCompose.h - Bottom-up composition of GPG summaries ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer-side half of the GPG points-to pass (GPG.h builds the
/// per-procedure residues in phase 1). strengthenSummariesWithGPG
/// composes every procedure's generalized points-to updates bottom-up
/// over the Tarjan SCC condensation of the direct-call graph: callee
/// residues are inlined at call sites (argument channels bind caller
/// values to callee parameters; return abstractions keep parameter
/// channels symbolic and substitute them per calling context), reduced
/// to classical whole-program points-to facts, and closed under escape.
/// The resulting per-global EscapeVerdicts and per-procedure indirect
/// target sets are then *merged into* the summaries by taking the more
/// precise fact — composed facts can only strengthen what the Andersen
/// pass recorded, never weaken it, which is the subsumption invariant
/// the differential test pins (DESIGN.md §14).
///
/// The composition runs once, single-threaded, over in-memory
/// summaries; every container is ordered, so the strengthened
/// summaries — and everything downstream (CallGraph un-aliasing, web
/// wrap narrowing, GlobalPromote, the serialized database) — are
/// byte-identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_ANALYSIS_GPGCOMPOSE_H
#define IPRA_ANALYSIS_GPGCOMPOSE_H

#include "summary/Summary.h"

#include <vector>

namespace ipra {

/// Observable statistics of one composition (surfaces in mcc --stats).
struct GPGComposeStats {
  /// Procedures whose GPG residue was composed.
  int ComposedProcs = 0;
  /// Distinct (call site, in-module callee) contexts inlined.
  int Contexts = 0;
  /// Globals strengthened to Refuted that Andersen left weaker.
  int RefutedBeyondAndersen = 0;
  /// Procedures whose indirect sites the composition resolved (or
  /// narrowed) beyond the per-module facts.
  int ResolvedBeyondAndersen = 0;
};

/// Whether composition applies to \p Summaries: there are some, and
/// every procedure carries a GPG residue. A summary written by an
/// Andersen-mode or pre-v4 phase 1 has none, and composing mixed-mode
/// summaries would be unsound.
bool gpgCompositionApplies(const std::vector<ModuleSummary> &Summaries);

/// Composes the GPG residues of \p Summaries and strengthens their
/// escape verdicts and indirect-call target sets in place. \p
/// ClosedWorld false (§7.2 library mode) seeds every exported symbol as
/// externally reachable first. Returns false — leaving the summaries
/// and \p Stats untouched — when gpgCompositionApplies is false.
bool strengthenSummariesWithGPG(std::vector<ModuleSummary> &Summaries,
                                bool ClosedWorld,
                                GPGComposeStats *Stats = nullptr);

} // namespace ipra

#endif // IPRA_ANALYSIS_GPGCOMPOSE_H
