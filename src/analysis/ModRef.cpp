//===- ModRef.cpp - Whole-program mod/ref & constancy analysis ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "analysis/ModRef.h"

#include <algorithm>
#include <vector>

using namespace ipra;

const char *ipra::globalVerdictName(GlobalVerdict V) {
  switch (V) {
  case GlobalVerdict::Dead:
    return "dead";
  case GlobalVerdict::ReadOnly:
    return "read-only";
  case GlobalVerdict::WriteOnly:
    return "write-only";
  case GlobalVerdict::ReadWrite:
    return "read-write";
  }
  return "read-write";
}

namespace {

/// A ref record proves a read when its loads= bit is set, or — for
/// summaries predating the bit — when it never stores: Freq counts
/// accesses, and accesses that are not stores are loads.
bool refReads(const GlobalRefSummary &R) { return R.Loads || !R.Stores; }

} // namespace

ModRefInfo ipra::computeModRef(const CallGraph &CG, bool AssumeClosedWorld) {
  ModRefInfo MR;
  int N = CG.size();
  MR.EntryReachable.assign(static_cast<size_t>(N), 0);

  // Entry roots: main when the program has one; under an open world
  // every externally visible or address-taken procedure too, since
  // unseen code may call it. Graphs without a main (library fragments,
  // synthesized test graphs) fall back to the start nodes — the same
  // virtual-root convention CG.isReachable uses — so every summarized
  // procedure stays "live" and the verdicts degrade soundly.
  std::vector<int> Roots;
  int Main = CG.findNode("main");
  MR.HasMain = Main >= 0;
  if (Main >= 0)
    Roots.push_back(Main);
  if (!AssumeClosedWorld)
    for (const CGNode &Node : CG.nodes())
      if (Node.ExternallyVisible || Node.IsAddressTaken)
        Roots.push_back(Node.Id);
  if (Roots.empty())
    Roots = CG.startNodes();

  // Forward reachability over Succs (direct and indirect call edges).
  std::vector<int> Work(Roots);
  for (int R : Roots)
    MR.EntryReachable[static_cast<size_t>(R)] = 1;
  while (!Work.empty()) {
    int U = Work.back();
    Work.pop_back();
    for (int S : CG.node(U).Succs)
      if (!MR.EntryReachable[static_cast<size_t>(S)]) {
        MR.EntryReachable[static_cast<size_t>(S)] = 1;
        Work.push_back(S);
      }
  }

  // An entry-reachable procedure without a summary is opaque: it may
  // read or write any global it can name — any exported global, but
  // never another module's static (the name is not linkable there).
  bool OpaqueReachable = false;
  for (const CGNode &Node : CG.nodes())
    if (!Node.HasSummary && MR.EntryReachable[static_cast<size_t>(Node.Id)])
      OpaqueReachable = true;

  // One program-wide union of the per-procedure bits, to which only
  // entry-reachable procedures contribute.
  std::map<std::string, std::pair<bool, bool>> Bits; // qual -> (read, write)
  for (const CGNode &Node : CG.nodes()) {
    if (!Node.HasSummary || !MR.EntryReachable[static_cast<size_t>(Node.Id)])
      continue;
    for (const GlobalRefSummary &R : Node.GlobalRefs) {
      auto &B = Bits[R.QualName];
      B.first |= refReads(R);
      B.second |= R.Stores;
    }
  }

  for (const auto &[Qual, Fact] : CG.globals()) {
    GlobalModRef V;
    bool Exported = !Fact.IsStatic;
    // Exactness: no aliased access can hide behind a pointer, no
    // unseen module (open world) and no reachable opaque procedure can
    // touch an exported global behind our back.
    V.Exact = !Fact.Aliased && !(Exported && !AssumeClosedWorld) &&
              !(Exported && OpaqueReachable);
    auto It = Bits.find(Qual);
    bool Read = It != Bits.end() && It->second.first;
    bool Written = It != Bits.end() && It->second.second;
    if (!V.Exact) {
      V.Verdict = GlobalVerdict::ReadWrite;
    } else if (Read && Written) {
      V.Verdict = GlobalVerdict::ReadWrite;
    } else if (Read) {
      V.Verdict = GlobalVerdict::ReadOnly;
      V.UninitRead = !Fact.HasInit;
    } else if (Written) {
      V.Verdict = GlobalVerdict::WriteOnly;
    } else {
      V.Verdict = GlobalVerdict::Dead;
    }
    MR.Globals.emplace(Qual, V);
  }
  return MR;
}
