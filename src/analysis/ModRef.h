//===- ModRef.h - Whole-program mod/ref & constancy analysis ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program mod/ref and constancy verdicts over the program call
/// graph (the paper's two-phase summary architecture applied to a
/// cheaper sibling of promotion, DESIGN.md §15): phase 1 records, per
/// procedure and per global, independent read and write bits (summary
/// format v5's ref loads=/stores=); this pass unions them over the
/// entry-reachable procedures into one verdict per global —
///
///   Dead       no entry-reachable procedure reads or writes it;
///   ReadOnly   read somewhere, written nowhere (entry-reachable);
///   WriteOnly  written somewhere, read nowhere;
///   ReadWrite  both (also the conservative default when the facts
///              cannot be exact — see GlobalModRef::Exact).
///
/// plus per-procedure reachability from the program entry. Consumers:
///
///  - web discovery (core/Webs.cpp): an exactly-Dead global's webs are
///    discarded (freeing coloring registers), an exactly-ReadOnly
///    global's webs drop the Modifies bit — no exit-sync writeback, no
///    wrap stores, cheaper entry overhead;
///  - the cross-module lint engine (analysis/Lint.h): dead procedures,
///    dead / write-only / uninitialized-read globals;
///  - `--verify-ipra`: no object-code store may target the home
///    location of a read-only-promoted global.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_ANALYSIS_MODREF_H
#define IPRA_ANALYSIS_MODREF_H

#include "callgraph/CallGraph.h"

#include <map>
#include <string>
#include <vector>

namespace ipra {

/// The four-point mod/ref lattice verdict for one global.
enum class GlobalVerdict : uint8_t {
  Dead = 0,
  ReadOnly = 1,
  WriteOnly = 2,
  ReadWrite = 3,
};

/// Printable verdict name ("dead" / "read-only" / "write-only" /
/// "read-write").
const char *globalVerdictName(GlobalVerdict V);

/// One global's composed whole-program verdict.
struct GlobalModRef {
  GlobalVerdict Verdict = GlobalVerdict::ReadWrite;
  /// True when the verdict is proven rather than conservative. Exact
  /// requires: the global's address is never taken (no unseen aliased
  /// access), no entry-reachable unsummarized procedure exists that
  /// could name it (placeholders are opaque), and — for exported
  /// globals — a closed world. Allocation consumes ONLY exact Dead /
  /// ReadOnly verdicts; inexact verdicts report ReadWrite.
  bool Exact = false;
  /// Exact, read somewhere, written nowhere, and the source carries no
  /// explicit initializer: every read observes the zero fill, which is
  /// almost always a forgotten initialization. A conservative
  /// under-approximation — summaries are order-free, so "a write
  /// precedes every read" cannot be proven, only "no write exists".
  bool UninitRead = false;

  bool operator==(const GlobalModRef &O) const = default;
};

/// The whole-program analysis result.
struct ModRefInfo {
  /// Verdict per global, keyed by qualified name; covers every global
  /// any module summarized.
  std::map<std::string, GlobalModRef> Globals;
  /// Per call-graph node: reachable from the program entry roots (main;
  /// plus every externally visible or address-taken procedure under an
  /// open world, since unseen code may call them).
  std::vector<char> EntryReachable;
  /// True when a procedure named "main" anchored the reachability walk.
  /// Without one (library fragments, synthesized test graphs) the walk
  /// falls back to the graph's start nodes and verdicts stay sound but
  /// weaker.
  bool HasMain = false;

  /// Verdict for \p Qual, or null when the global is unknown.
  const GlobalModRef *lookup(const std::string &Qual) const {
    auto It = Globals.find(Qual);
    return It == Globals.end() ? nullptr : &It->second;
  }
  /// Proven dead: safe to skip promotion entirely.
  bool deadGlobal(const std::string &Qual) const {
    const GlobalModRef *R = lookup(Qual);
    return R && R->Exact && R->Verdict == GlobalVerdict::Dead;
  }
  /// Proven read-only: safe to drop writeback and wrap stores.
  bool readOnlyGlobal(const std::string &Qual) const {
    const GlobalModRef *R = lookup(Qual);
    return R && R->Exact && R->Verdict == GlobalVerdict::ReadOnly;
  }
  bool entryReachable(int Node) const {
    return Node >= 0 && Node < static_cast<int>(EntryReachable.size()) &&
           EntryReachable[static_cast<size_t>(Node)];
  }

  bool operator==(const ModRefInfo &O) const = default;
};

/// Composes the per-procedure mod/ref bits of \p CG's summaries into
/// whole-program verdicts. Deterministic: the result is a pure function
/// of the call graph (itself a pure function of summaries + options),
/// so the delta analyzer recomputes rather than serializes it.
ModRefInfo computeModRef(const CallGraph &CG, bool AssumeClosedWorld);

} // namespace ipra

#endif // IPRA_ANALYSIS_MODREF_H
