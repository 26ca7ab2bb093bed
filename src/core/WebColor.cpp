//===- WebColor.cpp - Web interference graph coloring ----------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/WebColor.h"

#include <algorithm>
#include <map>

using namespace ipra;

namespace {

/// Returns considered-web ids sorted by descending priority, and the
/// per-node occupancy map used for interference.
std::vector<int> prioritizedWebs(const std::vector<Web> &Webs) {
  std::vector<int> Order;
  for (const Web &W : Webs)
    if (W.Considered)
      Order.push_back(W.Id);
  std::stable_sort(Order.begin(), Order.end(), [&Webs](int A, int B) {
    return Webs[A].Priority > Webs[B].Priority;
  });
  return Order;
}

/// Mask of registers already held by colored webs interfering with W
/// (webs interfere when they share a call-graph node, §4.1.3).
RegMask neighborRegs(const std::vector<Web> &Webs, const Web &W,
                     const std::vector<std::vector<int>> &NodeWebs) {
  RegMask Used = 0;
  for (int N : W.Nodes)
    for (int Other : NodeWebs[N])
      if (Other != W.Id && Webs[Other].AssignedReg >= 0)
        Used |= pr32::maskOf(
            static_cast<unsigned>(Webs[Other].AssignedReg));
  return Used;
}

std::vector<std::vector<int>> nodeWebMap(const std::vector<Web> &Webs,
                                         int NumNodes) {
  std::vector<std::vector<int>> NodeWebs(NumNodes);
  for (const Web &W : Webs)
    if (W.Considered)
      for (int N : W.Nodes)
        NodeWebs[N].push_back(W.Id);
  return NodeWebs;
}

WebColorStats statsFor(const std::vector<Web> &Webs) {
  WebColorStats Stats;
  Stats.TotalWebs = static_cast<int>(Webs.size());
  for (const Web &W : Webs) {
    if (W.Considered)
      ++Stats.Considered;
    if (W.AssignedReg >= 0)
      ++Stats.Colored;
  }
  return Stats;
}

} // namespace

WebColorStats ipra::colorWebsKRegisters(std::vector<Web> &Webs,
                                        const CallGraph &CG, RegMask Pool) {
  auto NodeWebs = nodeWebMap(Webs, CG.size());
  for (int Id : prioritizedWebs(Webs)) {
    Web &W = Webs[Id];
    RegMask Avail = Pool & ~neighborRegs(Webs, W, NodeWebs);
    if (Avail)
      W.AssignedReg = static_cast<int>(__builtin_ctz(Avail));
  }
  return statsFor(Webs);
}

WebColorStats ipra::colorWebsGreedy(std::vector<Web> &Webs,
                                    const CallGraph &CG) {
  auto NodeWebs = nodeWebMap(Webs, CG.size());
  // Per node: callee-saves registers still available once the node's own
  // estimated need is honored.
  std::vector<int> Headroom(CG.size());
  for (int N = 0; N < CG.size(); ++N)
    Headroom[N] = static_cast<int>(pr32::NumCalleeSaved) -
                  static_cast<int>(CG.node(N).CalleeRegsNeeded);

  for (int Id : prioritizedWebs(Webs)) {
    Web &W = Webs[Id];
    bool Fits = true;
    for (int N : W.Nodes)
      if (Headroom[N] <= 0) {
        Fits = false;
        break;
      }
    if (!Fits)
      continue;
    RegMask Avail =
        pr32::calleeSavedMask() & ~neighborRegs(Webs, W, NodeWebs);
    if (!Avail)
      continue;
    W.AssignedReg = static_cast<int>(__builtin_ctz(Avail));
    for (int N : W.Nodes)
      --Headroom[N];
  }
  return statsFor(Webs);
}

std::vector<Web> ipra::buildBlanketWebs(const CallGraph &CG,
                                        const RefSets &RS, int Count,
                                        RegMask Pool, const ModRefInfo *MR) {
  // Rank eligible globals by whole-program weighted reference count
  // ("the most frequently used global variables", §6.1).
  std::vector<std::pair<long long, int>> Ranked;
  for (int G = 0; G < RS.numEligible(); ++G) {
    long long Total = 0;
    for (int N = 0; N < CG.size(); ++N) {
      long long Add = RS.refFreq(N, G) * std::max<long long>(
                                             1, CG.invocationCount(N));
      Total = std::min(Total + Add, 1'000'000'000'000'000LL);
    }
    if (Total > 0)
      Ranked.push_back({Total, G});
  }
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [](const auto &A, const auto &B) {
                     return A.first > B.first;
                   });

  std::vector<unsigned> PoolRegs = pr32::maskRegs(Pool);
  std::vector<Web> Out;
  size_t Limit = std::min({static_cast<size_t>(Count), Ranked.size(),
                           PoolRegs.size()});
  for (size_t I = 0; I < Limit; ++I) {
    Web W;
    W.Id = static_cast<int>(Out.size());
    W.GlobalId = Ranked[I].second;
    W.Priority = Ranked[I].first;
    W.Nodes = NodeSet::withUniverse(CG.size());
    // An exactly read-only global never needs its register stored back
    // (§15), the same rule buildWebs applies.
    bool ReadOnly = MR && MR->readOnlyGlobal(RS.globalName(W.GlobalId));
    for (int N = 0; N < CG.size(); ++N) {
      W.Nodes.insert(N);
      if (!ReadOnly && RS.refStores(N, W.GlobalId))
        W.Modifies = true;
    }
    // The program's start nodes play the role of web entries: the
    // variable is loaded once at startup and stored back at exit.
    for (int S : CG.startNodes())
      W.EntryNodes.push_back(S);
    W.AssignedReg = static_cast<int>(PoolRegs[I]);
    Out.push_back(std::move(W));
  }
  return Out;
}

std::vector<std::string> ipra::checkColoring(const std::vector<Web> &Webs) {
  std::vector<std::string> Problems;
  for (size_t A = 0; A < Webs.size(); ++A) {
    const Web &WA = Webs[A];
    if (WA.AssignedReg >= 0 &&
        !pr32::isCalleeSaved(static_cast<unsigned>(WA.AssignedReg)))
      Problems.push_back("web " + std::to_string(WA.Id) +
                         " colored with a non-callee-saves register");
    if (WA.AssignedReg < 0)
      continue;
    for (size_t B = A + 1; B < Webs.size(); ++B) {
      const Web &WB = Webs[B];
      if (WB.AssignedReg != WA.AssignedReg)
        continue;
      if (WA.Nodes.intersects(WB.Nodes))
        Problems.push_back("webs " + std::to_string(WA.Id) + " and " +
                           std::to_string(WB.Id) +
                           " interfere but share a register");
    }
  }
  return Problems;
}
