//===- CallGraph.cpp - Program call graph ----------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "callgraph/CallGraph.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <set>
#include <sstream>

using namespace ipra;

namespace {
constexpr long long CountCap = 1'000'000'000'000'000LL; // 1e15.
constexpr long long RecursionFactor = 10;

long long capAdd(long long A, long long B) {
  return std::min(CountCap, A + B);
}
long long capMul(long long A, long long B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > CountCap / B)
    return CountCap;
  return A * B;
}
} // namespace

int CallGraph::findNode(const std::string &QualName) const {
  auto It = NameToId.find(QualName);
  return It == NameToId.end() ? -1 : It->second;
}

void CallGraph::addEdge(int From, int To, long long Freq) {
  CGNode &F = Nodes[From];
  if (std::find(F.Succs.begin(), F.Succs.end(), To) == F.Succs.end()) {
    F.Succs.push_back(To);
    Nodes[To].Preds.push_back(From);
  }
  long long &W = LocalFreq[{From, To}];
  W = capAdd(W, Freq);
}

void CallGraph::mergeGlobalFacts(const std::vector<ModuleSummary> &Summaries,
                                 std::map<std::string, GlobalSummary> &Facts,
                                 unsigned &Refuted) const {
  // Globals some module aliases before verdicts are applied; the ones
  // that end up un-aliased were refuted by the escape analysis.
  std::set<std::string> RawAliased;
  for (const ModuleSummary &S : Summaries) {
    for (const GlobalSummary &G : S.Globals) {
      // This module aliases the global only if it takes the address AND
      // the escape analysis failed to refute the Aliased bit. The OR
      // over modules is sound per-module: an address that crosses a
      // module boundary is an escape, so a Refuted verdict proves this
      // module's '&' contributes no reachable alias anywhere.
      bool Aliases =
          G.Aliased &&
          (!UsePointsTo || G.Escape != EscapeVerdict::Refuted);
      if (UsePointsTo && G.Aliased && !Aliases)
        RawAliased.insert(G.QualName);
      auto [It, Inserted] = Facts.try_emplace(G.QualName, G);
      if (Inserted) {
        It->second.Aliased = Aliases;
      } else {
        It->second.Aliased |= Aliases;
        It->second.IsScalar &= G.IsScalar;
        // Any module may carry the common symbol's initializer.
        It->second.HasInit |= G.HasInit;
        if (G.Escape < It->second.Escape)
          It->second.Escape = G.Escape;
      }
    }
  }
  for (const std::string &Name : RawAliased)
    if (!Facts.at(Name).Aliased)
      ++Refuted;
}

CallGraph::CallGraph(const std::vector<ModuleSummary> &Summaries,
                     const CallProfile &Profile, bool UsePointsTo)
    : UsePointsTo(UsePointsTo) {
  // Nodes for every summarized procedure.
  for (const ModuleSummary &S : Summaries) {
    for (const ProcSummary &P : S.Procs) {
      CGNode N;
      N.Id = static_cast<int>(Nodes.size());
      N.QualName = P.QualName;
      N.Module = P.Module;
      N.CalleeRegsNeeded = P.CalleeRegsNeeded;
      N.CallerRegsUsed = P.CallerRegsUsed;
      N.MakesIndirectCalls = P.MakesIndirectCalls;
      N.GlobalRefs = P.GlobalRefs;
      N.HasSummary = true;
      N.ExternallyVisible = P.QualName.find(':') == std::string::npos;
      NameToId[N.QualName] = N.Id;
      Nodes.push_back(std::move(N));
    }
  }
  mergeGlobalFacts(Summaries, GlobalFacts, NumEscapesRefuted);

  // Placeholder nodes for called-but-undefined procedures, so the graph
  // stays closed (see §7.2; these are treated as opaque leaves).
  auto EnsureNode = [this](const std::string &QualName) {
    auto It = NameToId.find(QualName);
    if (It != NameToId.end())
      return It->second;
    CGNode N;
    N.Id = static_cast<int>(Nodes.size());
    N.QualName = QualName;
    NameToId[QualName] = N.Id;
    Nodes.push_back(std::move(N));
    return N.Id;
  };

  // Direct edges and the set of address-taken procedures.
  std::set<std::string> AddrTaken;
  for (const ModuleSummary &S : Summaries) {
    for (const ProcSummary &P : S.Procs) {
      int From = NameToId.at(P.QualName);
      for (const CallSummary &C : P.Calls)
        addEdge(From, EnsureNode(C.QualCallee), C.Freq);
      for (const std::string &A : P.AddressTakenProcs)
        AddrTaken.insert(A);
    }
  }
  for (const std::string &A : AddrTaken) {
    int Id = EnsureNode(A);
    Nodes[Id].IsAddressTaken = true;
    // A procedure whose address escapes may be reached from anywhere.
    Nodes[Id].ExternallyVisible = true;
  }

  // Indirect edges. When the producing module's points-to analysis
  // resolved every indirect call in a procedure, edges go only to the
  // proven targets; otherwise the conservative rule applies (§7.3):
  // every indirect caller may reach every address-taken procedure.
  for (const ModuleSummary &S : Summaries) {
    for (const ProcSummary &P : S.Procs) {
      if (!P.MakesIndirectCalls)
        continue;
      int From = NameToId.at(P.QualName);
      if (UsePointsTo && P.IndTargetsResolved) {
        std::vector<int> Ids;
        for (const std::string &T : P.IndirectTargets) {
          int Id = EnsureNode(T);
          addEdge(From, Id, std::max<long long>(1, P.IndirectCallFreq));
          Ids.push_back(Id);
        }
        ResolvedIndTargets[From] = std::move(Ids);
        continue;
      }
      for (const std::string &A : AddrTaken)
        addEdge(From, NameToId.at(A), std::max<long long>(
                                          1, P.IndirectCallFreq));
    }
  }
  for (const CGNode &N : Nodes)
    if (N.IsAddressTaken)
      AddrTakenIds.push_back(N.Id);

  rebuildDerived(Profile);
}

/// Recomputes everything downstream of the adjacency lists. Runs both
/// at construction and after applyProcDelta re-points edges; all passes
/// are functions of (node order, Succs order, Preds membership,
/// LocalFreq), so identical inputs reproduce identical results.
void CallGraph::rebuildDerived(const CallProfile &Profile) {
  // Start nodes: every node without a predecessor is treated as a start
  // node (§4.1.2 footnote); main is always a start node.
  Starts.clear();
  int MainId = findNode("main");
  for (const CGNode &N : Nodes)
    if (N.Preds.empty() || N.Id == MainId)
      Starts.push_back(N.Id);
  if (Starts.empty() && !Nodes.empty())
    Starts.push_back(0); // Fully cyclic graph without main.

  // RPO from a virtual root through the start nodes.
  auto SuccsOf = [this](int N) -> const std::vector<int> & {
    return Nodes[N].Succs;
  };
  Order = reversePostOrder(Nodes.size(), Starts, SuccsOf);

  // Stale entries for edges that no longer exist must not survive into
  // computeInvocations (its heuristic path only overwrites live keys).
  EdgeCounts.clear();

  Sccs.Ids.assign(Nodes.size(), -1);
  Sccs.Nodes.clear();
  Sccs.Begin.assign(1, 0);
  Sccs.Cyclic.clear();
  forEachScc(Nodes.size(), SuccsOf, [this](const std::vector<int> &Members) {
    for (int M : Members)
      Sccs.Ids[M] = Sccs.size();
    Sccs.Nodes.insert(Sccs.Nodes.end(), Members.begin(), Members.end());
    Sccs.Begin.push_back(static_cast<int>(Sccs.Nodes.size()));
    // Self-loops are recursion too.
    const std::vector<int> &Out = Nodes[Members[0]].Succs;
    Sccs.Cyclic.push_back(Members.size() > 1 ||
                          std::find(Out.begin(), Out.end(), Members[0]) !=
                              Out.end());
  });

  IDom = immediateDominators(Order, Starts,
                             [this](int N) -> const std::vector<int> & {
                               return Nodes[N].Preds;
                             });
  computeInvocations(Profile);
}

bool CallGraph::dominates(int A, int B) const {
  if (!isReachable(A) || !isReachable(B))
    return A == B;
  while (B != -1 && B != -2) {
    if (A == B)
      return true;
    B = IDom[B];
  }
  return false;
}

void CallGraph::computeInvocations(const CallProfile &Profile) {
  size_t N = Nodes.size();
  Invocations.assign(N, 0);

  if (!Profile.empty()) {
    for (CGNode &Node : Nodes) {
      auto It = Profile.CallCounts.find(Node.QualName);
      Invocations[Node.Id] = It != Profile.CallCounts.end() ? It->second : 0;
    }
    int MainId = findNode("main");
    if (MainId >= 0 && Invocations[MainId] == 0)
      Invocations[MainId] = 1;
    for (auto &[Edge, Count] : Profile.EdgeCounts) {
      int From = findNode(Edge.first);
      int To = findNode(Edge.second);
      if (From >= 0 && To >= 0)
        EdgeCounts[{From, To}] = Count;
    }
    return;
  }

  // Heuristic normalization (§6.2): propagate invocation estimates from
  // the start nodes through the SCC condensation in topological order;
  // recursion multiplies by a fixed factor; arcs to leaves get extra
  // weight.
  for (int S : Starts)
    Invocations[S] = 1;

  // Local frequencies re-keyed parallel to each node's Preds list: one
  // ordered walk of LocalFreq replaces a tree lookup per predecessor
  // edge in the propagation below.
  std::vector<std::vector<long long>> PredFreq(N);
  for (size_t U = 0; U < N; ++U)
    PredFreq[U].assign(Nodes[U].Preds.size(), 1);
  for (const auto &[Edge, Freq] : LocalFreq) {
    const std::vector<int> &P = Nodes[Edge.second].Preds;
    for (size_t J = 0; J < P.size(); ++J)
      if (P[J] == Edge.first) {
        PredFreq[Edge.second][J] = Freq;
        break;
      }
  }

  // Descending SCC id processes callers before callees.
  for (int Scc = numSccs() - 1; Scc >= 0; --Scc) {
    // Incoming invocation flow from outside the SCC.
    for (int U : sccMembers(Scc)) {
      long long In = Invocations[U];
      const std::vector<int> &Preds = Nodes[U].Preds;
      for (size_t J = 0; J < Preds.size(); ++J) {
        int P = Preds[J];
        if (sccId(P) == Scc)
          continue;
        In = capAdd(In, capMul(Invocations[P], PredFreq[U][J]));
      }
      Invocations[U] = In;
    }
    // Recursion bonus: every member of a nontrivial SCC is assumed to
    // run RecursionFactor times per external entry.
    if (sccIsCyclic(Scc)) {
      long long Entry = 0;
      for (int U : sccMembers(Scc))
        Entry = capAdd(Entry, Invocations[U]);
      for (int U : sccMembers(Scc))
        Invocations[U] = capMul(std::max(1LL, Entry), RecursionFactor);
    }
  }

  // Edge counts: caller invocations times local frequency, with the
  // leaf bonus. LocalFreq iterates in key order and EdgeCounts was
  // cleared above, so end-hinted insertion is amortized O(1) per edge.
  for (auto &[Edge, Freq] : LocalFreq) {
    long long Count = capMul(Invocations[Edge.first], Freq);
    if (Nodes[Edge.second].Succs.empty())
      Count = capMul(Count, 2);
    EdgeCounts.emplace_hint(EdgeCounts.end(), Edge, Count);
  }
}

bool CallGraph::applyProcDelta(const std::vector<ModuleSummary> &Summaries,
                               const CallProfile &Profile,
                               const std::vector<ProcPatch> &Patches,
                               std::string &FallbackReason) {
  // --- Precheck (no mutation until every patch is known expressible).
  //
  // Placeholder nodes get their ids from first-reference order during a
  // cold build; any patched record touching an unsummarized name could
  // therefore shift the id assignment, which leaks into iteration
  // orders and output bytes. Old out-edges are checked too: dropping
  // the last reference to a placeholder would shrink a cold graph.
  for (const ProcPatch &Patch : Patches) {
    const CGNode &N = Nodes[Patch.Node];
    const ProcSummary &P = *Patch.New;
    assert(N.QualName == P.QualName && "patch must keep the node's name");
    for (const CallSummary &C : P.Calls) {
      auto It = NameToId.find(C.QualCallee);
      if (It == NameToId.end() || !Nodes[It->second].HasSummary) {
        FallbackReason = "call to unsummarized procedure " + C.QualCallee;
        return false;
      }
    }
    if (P.MakesIndirectCalls && UsePointsTo && P.IndTargetsResolved) {
      for (const std::string &T : P.IndirectTargets) {
        auto It = NameToId.find(T);
        if (It == NameToId.end() || !Nodes[It->second].HasSummary) {
          FallbackReason = "indirect target unsummarized: " + T;
          return false;
        }
      }
    }
    for (int S : N.Succs)
      if (!Nodes[S].HasSummary) {
        FallbackReason =
            "old edge to unsummarized procedure " + Nodes[S].QualName;
        return false;
      }
  }

  // The merged global facts must keep every field the eligibility rules
  // read (§4.1.2, §7.4): a new/removed global or a flipped
  // scalar/aliased/static fact re-lays the analyzer's bitset universe.
  // Escape-verdict drift that does not flip Aliased is absorbed.
  std::map<std::string, GlobalSummary> NewFacts;
  unsigned NewRefuted = 0;
  mergeGlobalFacts(Summaries, NewFacts, NewRefuted);
  {
    auto A = GlobalFacts.begin();
    auto B = NewFacts.begin();
    for (; A != GlobalFacts.end() && B != NewFacts.end(); ++A, ++B) {
      if (A->first != B->first) {
        FallbackReason = "global universe changed: " + B->first;
        return false;
      }
      const GlobalSummary &G0 = A->second, &G1 = B->second;
      if (G0.IsScalar != G1.IsScalar || G0.Aliased != G1.Aliased ||
          G0.IsStatic != G1.IsStatic || G0.Module != G1.Module) {
        FallbackReason = "global facts changed: " + B->first;
        return false;
      }
    }
    if (A != GlobalFacts.end() || B != NewFacts.end()) {
      FallbackReason = "global universe changed";
      return false;
    }
  }

  // --- Commit.
  GlobalFacts = std::move(NewFacts);
  NumEscapesRefuted = NewRefuted;

  // Unhook every patched node's out-edges.
  for (const ProcPatch &Patch : Patches) {
    CGNode &N = Nodes[Patch.Node];
    for (int S : N.Succs) {
      std::vector<int> &P = Nodes[S].Preds;
      P.erase(std::find(P.begin(), P.end(), Patch.Node));
    }
    N.Succs.clear();
    LocalFreq.erase(LocalFreq.lower_bound({Patch.Node, INT_MIN}),
                    LocalFreq.lower_bound({Patch.Node + 1, INT_MIN}));
    ResolvedIndTargets.erase(Patch.Node);

    const ProcSummary &P = *Patch.New;
    N.Module = P.Module; // §7.4 statics filter reads it.
    N.CalleeRegsNeeded = P.CalleeRegsNeeded;
    N.CallerRegsUsed = P.CallerRegsUsed;
    N.MakesIndirectCalls = P.MakesIndirectCalls;
    N.GlobalRefs = P.GlobalRefs;
  }

  // Re-add out-edges in cold-construction order: the direct-call pass
  // first, then the indirect pass, exactly as the constructor orders
  // them, so each node's Succs sequence matches a cold build.
  for (const ProcPatch &Patch : Patches)
    for (const CallSummary &C : Patch.New->Calls)
      addEdge(Patch.Node, NameToId.at(C.QualCallee), C.Freq);

  // The unresolved-indirect fan-out iterates address-taken procedures
  // in name order (the constructor walks a std::set<std::string>).
  std::vector<std::string> AddrTakenNames;
  for (int Id : AddrTakenIds)
    AddrTakenNames.push_back(Nodes[Id].QualName);
  std::sort(AddrTakenNames.begin(), AddrTakenNames.end());

  for (const ProcPatch &Patch : Patches) {
    const ProcSummary &P = *Patch.New;
    if (!P.MakesIndirectCalls)
      continue;
    if (UsePointsTo && P.IndTargetsResolved) {
      std::vector<int> Ids;
      for (const std::string &T : P.IndirectTargets) {
        int Id = NameToId.at(T);
        addEdge(Patch.Node, Id, std::max<long long>(1, P.IndirectCallFreq));
        Ids.push_back(Id);
      }
      ResolvedIndTargets[Patch.Node] = std::move(Ids);
      continue;
    }
    for (const std::string &A : AddrTakenNames)
      addEdge(Patch.Node, NameToId.at(A),
              std::max<long long>(1, P.IndirectCallFreq));
  }

  rebuildDerived(Profile);
  return true;
}

const std::vector<int> &CallGraph::indirectTargetsOf(int Node) const {
  auto It = ResolvedIndTargets.find(Node);
  return It != ResolvedIndTargets.end() ? It->second : AddrTakenIds;
}

long long CallGraph::edgeCount(int From, int To) const {
  auto It = EdgeCounts.find({From, To});
  return It == EdgeCounts.end() ? 0 : It->second;
}

std::string CallGraph::toString() const {
  std::ostringstream OS;
  for (const CGNode &N : Nodes) {
    OS << N.Id << " " << N.QualName << " inv=" << Invocations[N.Id]
       << (isRecursive(N.Id) ? " rec" : "") << " ->";
    for (int S : N.Succs)
      OS << " " << Nodes[S].QualName << "(" << edgeCount(N.Id, S) << ")";
    OS << "\n";
  }
  return OS.str();
}
