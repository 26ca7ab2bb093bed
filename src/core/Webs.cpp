//===- Webs.cpp - Global variable webs over the call graph -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/Webs.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <iterator>
#include <numeric>

using namespace ipra;

namespace {

constexpr long long PriorityCap = Web::PriorityCap;

long long capAdd(long long A, long long B) {
  return std::min(PriorityCap, A + B);
}
long long capMul(long long A, long long B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > PriorityCap / B)
    return PriorityCap;
  return A * B;
}

/// Figure 2's Expand_Web, iteratively: adds \p Seed and every successor
/// chain whose nodes have G in L_REF or C_REF.
void expandWeb(const CallGraph &CG, const RefSets &RS, int G, NodeSet &W,
               int Seed) {
  std::vector<int> Stack = {Seed};
  while (!Stack.empty()) {
    int Q = Stack.back();
    Stack.pop_back();
    if (!W.insert(Q))
      continue;
    for (int S : CG.node(Q).Succs)
      if (!W.count(S) && (RS.cref(S).test(G) || RS.lref(S).test(G)))
        Stack.push_back(S);
  }
}

/// Figure 2's enlargement step: sets \p Absorb to the external
/// predecessors of every node of \p W that has both an internal and an
/// external predecessor. False when there are none (W is closed).
bool mixedPredecessors(const CallGraph &CG, const NodeSet &W,
                       NodeSet &Absorb) {
  Absorb = NodeSet::withUniverse(CG.size());
  bool Any = false;
  for (int Z : W) {
    bool Internal = false, External = false;
    for (int P : CG.node(Z).Preds) {
      if (W.count(P))
        Internal = true;
      else
        External = true;
    }
    if (Internal && External)
      for (int P : CG.node(Z).Preds)
        if (!W.count(P))
          Any |= Absorb.insert(P);
  }
  return Any;
}

/// The repeat/until loop of Figure 2: expand from \p Seeds, then absorb
/// external predecessors of mixed-predecessor nodes until none remain.
void growWeb(const CallGraph &CG, const RefSets &RS, int G, NodeSet &W,
             NodeSet Seeds) {
  do {
    for (int Q : Seeds)
      expandWeb(CG, RS, G, W, Q);
  } while (mixedPredecessors(CG, W, Seeds));
}

/// Module of a qualified name ("mod:x" -> "mod", plain names -> "").
std::string moduleOfQualName(const std::string &QualName) {
  size_t Colon = QualName.find(':');
  return Colon == std::string::npos ? "" : QualName.substr(0, Colon);
}

/// Grows a split sub-web to internal-closure: the enlargement half of
/// Figure 2's repeat loop, WITHOUT the successor descent (descendant
/// reference regions belong to other sub-webs; wrap code synchronizes
/// with them through memory).
void closeSplitWeb(const CallGraph &CG, NodeSet &W) {
  NodeSet Absorb;
  while (mixedPredecessors(CG, W, Absorb))
    W.unionWith(Absorb);
}

/// Computes entries, the modifies flag and the §4.1.3 priority for a
/// (non-split) web whose Nodes are final. \p ForceReadOnly drops the
/// Modifies bit (the global is exactly ReadOnly program-wide; any
/// store sits in entry-unreachable code) before the entry overhead
/// consults it.
void finishWeb(const CallGraph &CG, const RefSets &RS, Web &W,
               bool ForceReadOnly = false) {
  W.EntryNodes.clear();
  W.Modifies = false;
  long long Benefit = 0;
  for (int N : W.Nodes) {
    if (!ForceReadOnly && RS.refStores(N, W.GlobalId))
      W.Modifies = true;
    Benefit = capAdd(Benefit, capMul(RS.refFreq(N, W.GlobalId),
                                     CG.invocationCount(N)));
  }
  long long EntryOverhead = 0;
  for (int N : W.Nodes) {
    bool HasInternalPred = false;
    for (int P : CG.node(N).Preds)
      if (W.Nodes.count(P)) {
        HasInternalPred = true;
        break;
      }
    if (!HasInternalPred) {
      W.EntryNodes.push_back(N);
      EntryOverhead = capAdd(EntryOverhead, capMul(CG.invocationCount(N),
                                                   W.Modifies ? 2 : 1));
    }
  }
  W.Priority = Benefit - EntryOverhead;
}

/// §7.6.1 re-merging: joins same-variable webs so they can "share
/// entry nodes, at the expense of extra interferences". Candidates are
/// webs that are promotable or were discarded for purely economic
/// reasons (unprofitable, sparse, infrequent) - a pair of webs that
/// individually cannot pay their per-entry load/store may be worth one
/// shared entry at their common dominator. The merged region is the
/// pair plus the connector nodes between the dominator and the webs,
/// closed under Figure 2's mixed-predecessor rule; it absorbs any
/// further web of the variable it overlaps or reaches (the
/// minimal-subgraph property must survive). The merge is kept when the
/// merged priority beats the combined priority of the considered webs
/// it replaces, and the §7.2/§7.4 correctness filters still hold.
void remergeWebs(const CallGraph &CG, const RefSets &RS,
                 std::vector<Web> &Webs, const AnalyzerOptions &Options,
                 const ModRefInfo *MR) {
  // Nearest common dominator of two nodes (walking idom chains).
  auto commonDominator = [&](int A, int B) {
    NodeSet Chain;
    for (int N = A; N >= 0; N = CG.idom(N))
      Chain.insert(N);
    for (int N = B; N >= 0; N = CG.idom(N))
      if (Chain.count(N))
        return N;
    return -1;
  };

  // Economic discards may be resurrected by a merge; correctness
  // discards (§7.2 visibility, §7.4 statics) may not seed one.
  auto IsCandidate = [](const Web &W) {
    return !W.IsSplit &&
           (W.Considered || W.DiscardReason == "unprofitable" ||
            W.DiscardReason == "too sparse" ||
            W.DiscardReason == "single node, infrequent");
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t A = 0; A < Webs.size() && !Changed; ++A) {
      if (!IsCandidate(Webs[A]))
        continue;
      for (size_t B = A + 1; B < Webs.size() && !Changed; ++B) {
        if (!IsCandidate(Webs[B]) ||
            Webs[B].GlobalId != Webs[A].GlobalId)
          continue;
        int G = Webs[A].GlobalId;

        // Nearest common dominator of every entry of both webs.
        int Dom = -1;
        for (const Web *W : {&Webs[A], &Webs[B]})
          for (int E : W->EntryNodes)
            Dom = Dom == -1 ? E : commonDominator(Dom, E);
        if (Dom == -1)
          continue;

        // Region: the pair, plus nodes on Dom-to-web paths (reachable
        // from Dom and reaching a web node). The shared entry is Dom.
        NodeSet Union = Webs[A].Nodes;
        Union.unionWith(Webs[B].Nodes);
        std::vector<char> FromDom(CG.size(), 0), ToWeb(CG.size(), 0);
        std::vector<int> Work{Dom};
        FromDom[Dom] = 1;
        while (!Work.empty()) {
          int N = Work.back();
          Work.pop_back();
          for (int S : CG.node(N).Succs)
            if (!FromDom[S]) {
              FromDom[S] = 1;
              Work.push_back(S);
            }
        }
        for (int N : Union)
          if (!ToWeb[N]) {
            ToWeb[N] = 1;
            Work.push_back(N);
          }
        while (!Work.empty()) {
          int N = Work.back();
          Work.pop_back();
          for (int P : CG.node(N).Preds)
            if (!ToWeb[P]) {
              ToWeb[P] = 1;
              Work.push_back(P);
            }
        }
        for (int N = 0; N < CG.size(); ++N)
          if (FromDom[N] && ToWeb[N])
            Union.insert(N);

        // Close under the mixed-predecessor rule, then absorb every
        // same-variable web the region touches or reaches (a web left
        // downstream of the region would break the minimal-subgraph
        // property). Repeat until stable. Split sub-webs cannot be
        // absorbed (their wrap code assumes their exact shape): touching
        // one vetoes the merge.
        NodeSet MergedNodes;
        bool TouchesSplitWeb = false;
        bool Grew = true;
        while (Grew && !TouchesSplitWeb) {
          Grew = false;
          MergedNodes = NodeSet::withUniverse(CG.size());
          growWeb(CG, RS, G, MergedNodes, Union);
          std::vector<char> Reach(CG.size(), 0);
          for (int N : MergedNodes)
            if (!Reach[N]) {
              Reach[N] = 1;
              Work.push_back(N);
            }
          while (!Work.empty()) {
            int N = Work.back();
            Work.pop_back();
            for (int S : CG.node(N).Succs)
              if (!Reach[S]) {
                Reach[S] = 1;
                Work.push_back(S);
              }
          }
          for (const Web &W : Webs) {
            if (W.GlobalId != G)
              continue;
            bool Touched = false;
            for (int N : W.Nodes)
              Touched |= Reach[N] != 0;
            if (!Touched)
              continue;
            if (W.IsSplit) {
              TouchesSplitWeb = true;
              break;
            }
            for (int N : W.Nodes)
              if (Union.insert(N))
                Grew = true;
          }
        }
        if (TouchesSplitWeb)
          continue;

        Web Merged;
        Merged.GlobalId = G;
        Merged.Nodes = MergedNodes;
        Merged.IsRemerged = true;
        finishWeb(CG, RS, Merged,
                  MR && MR->readOnlyGlobal(RS.globalName(G)));

        // The §7.2/§7.4 correctness filters apply to the merged shape.
        if (!Options.AssumeClosedWorld) {
          NodeSet Entries;
          for (int E : Merged.EntryNodes)
            Entries.insert(E);
          bool VisibleInterior = false;
          for (int N : Merged.Nodes)
            VisibleInterior |=
                !Entries.count(N) && CG.node(N).ExternallyVisible;
          if (VisibleInterior)
            continue;
        }
        std::string StaticModule = moduleOfQualName(RS.globalName(G));
        if (!StaticModule.empty()) {
          bool Crosses = false;
          for (int E : Merged.EntryNodes)
            Crosses |= CG.node(E).Module != StaticModule;
          if (Crosses)
            continue;
        }

        // Profitable only if it beats what the absorbed webs deliver
        // today (discarded webs deliver nothing).
        long long PairPriority = 0;
        std::vector<size_t> Absorbed;
        for (size_t C = 0; C < Webs.size(); ++C) {
          if (Webs[C].GlobalId != G)
            continue;
          if (Webs[C].Nodes.intersects(MergedNodes)) {
            Absorbed.push_back(C);
            if (Webs[C].Considered)
              PairPriority = capAdd(PairPriority, Webs[C].Priority);
          }
        }
        if (Merged.Priority <= PairPriority || Merged.Priority <= 0)
          continue;

        // Accept: the absorbed webs are replaced by the merged one
        // (same-variable webs must stay node-disjoint). Ids track the
        // vector indices the coloring phase relies on.
        for (size_t I = Absorbed.size(); I-- > 0;)
          Webs.erase(Webs.begin() + Absorbed[I]);
        Webs.push_back(std::move(Merged));
        for (size_t I = 0; I < Webs.size(); ++I)
          Webs[I].Id = static_cast<int>(I);
        Changed = true;
      }
    }
  }
}

/// Splits a sparse web (§7.6.1): its L_REF nodes are grouped into
/// adjacency components, each closed under the internal-predecessor
/// rule, with wrap edges toward every escaping referencing path.
/// Returns the (possibly empty) list of profitable sub-webs.
std::vector<Web> splitSparseWeb(const CallGraph &CG, const RefSets &RS,
                                const Web &Parent, bool ForceReadOnly) {
  int G = Parent.GlobalId;

  // 1. Components of the parent's L_REF nodes under direct adjacency.
  std::vector<int> RefNodes;
  for (int N : Parent.Nodes)
    if (RS.lref(N).test(G))
      RefNodes.push_back(N);
  std::map<int, int> Component;
  int NumComponents = 0;
  for (int Seed : RefNodes) {
    if (Component.count(Seed))
      continue;
    int Id = NumComponents++;
    std::vector<int> Work = {Seed};
    Component[Seed] = Id;
    while (!Work.empty()) {
      int N = Work.back();
      Work.pop_back();
      auto Visit = [&](int M) {
        if (RS.lref(M).test(G) && Parent.Nodes.count(M) &&
            !Component.count(M)) {
          Component[M] = Id;
          Work.push_back(M);
        }
      };
      for (int S : CG.node(N).Succs)
        Visit(S);
      for (int P : CG.node(N).Preds)
        Visit(P);
    }
  }
  if (NumComponents < 2)
    return {}; // Nothing to split apart.

  // 2. Close each component and merge any that collided.
  std::vector<NodeSet> SubNodes(
      NumComponents, NodeSet::withUniverse(CG.size()));
  for (auto &[Node, Id] : Component)
    SubNodes[Id].insert(Node);
  for (auto &W : SubNodes)
    closeSplitWeb(CG, W);
  std::vector<NodeSet> Merged;
  for (NodeSet W : SubNodes) {
    bool Absorbed = true;
    while (Absorbed) {
      Absorbed = false;
      for (auto It = Merged.begin(); It != Merged.end(); ++It) {
        if (W.intersects(*It)) {
          W.unionWith(*It);
          Merged.erase(It);
          closeSplitWeb(CG, W);
          Absorbed = true;
          break;
        }
      }
    }
    Merged.push_back(std::move(W));
  }
  if (Merged.size() < 2)
    return {};

  // 3. Materialize sub-webs with wrap edges and split-aware priorities.
  std::vector<Web> Out;
  for (NodeSet &Nodes : Merged) {
    Web W;
    W.GlobalId = G;
    W.IsSplit = true;
    W.Nodes = std::move(Nodes);

    long long Benefit = 0;
    for (int N : W.Nodes) {
      if (!ForceReadOnly && RS.refStores(N, G))
        W.Modifies = true;
      Benefit =
          capAdd(Benefit, capMul(RS.refFreq(N, G), CG.invocationCount(N)));
    }

    long long Overhead = 0;
    for (int N : W.Nodes) {
      bool HasInternalPred = false;
      for (int P : CG.node(N).Preds)
        if (W.Nodes.count(P)) {
          HasInternalPred = true;
          break;
        }
      if (!HasInternalPred) {
        W.EntryNodes.push_back(N);
        Overhead = capAdd(Overhead, capMul(CG.invocationCount(N),
                                           W.Modifies ? 2 : 1));
      }
      // Wrap edges: calls out of the sub-web toward any referencing
      // path (another sub-web or a region below it).
      for (int S : CG.node(N).Succs) {
        if (W.Nodes.count(S))
          continue;
        if (RS.lref(S).test(G) || RS.cref(S).test(G)) {
          W.WrapEdges[N].insert(S);
          Overhead = capAdd(Overhead, capMul(CG.edgeCount(N, S),
                                             W.Modifies ? 2 : 1));
        }
      }
      // Indirect calls from N: wrap when any procedure the call may
      // invoke (the proven target set when points-to resolved it,
      // every address-taken procedure otherwise) can reach the
      // variable.
      if (CG.node(N).MakesIndirectCalls) {
        for (int TId : CG.indirectTargetsOf(N)) {
          const CGNode &T = CG.node(TId);
          if (!T.IsAddressTaken || W.Nodes.count(T.Id))
            continue;
          if (RS.lref(T.Id).test(G) || RS.cref(T.Id).test(G)) {
            W.WrapIndirect.insert(N);
            Overhead = capAdd(Overhead, capMul(CG.invocationCount(N), 2));
            break;
          }
        }
      }
    }
    W.Priority = Benefit - Overhead;
    if (W.Priority <= 0) {
      W.Considered = false;
      W.DiscardReason = "split sub-web unprofitable";
    }
    Out.push_back(std::move(W));
  }
  return Out;
}

/// Discovers and materializes every web of global \p G. Web Ids are
/// left unassigned; they are numbered after the (possibly parallel)
/// per-global fan-out, in global-id order, so the result is independent
/// of scheduling. The §7.6.1 re-merge pass is not applied here: it is
/// a cross-global transformation of the concatenated list.
std::vector<Web> websForGlobal(const CallGraph &CG, const RefSets &RS, int G,
                               const AnalyzerOptions &Options,
                               const ModRefInfo *MR) {
  // Whole-program verdicts (DESIGN.md §15): both consult only this
  // global's entry, so re-discovery under the delta analyzer replays
  // identically whenever the verdict is unchanged.
  bool DeadGlobal = MR && MR->deadGlobal(RS.globalName(G));
  bool ReadOnly = MR && MR->readOnlyGlobal(RS.globalName(G));
  std::vector<NodeSet> GWebs;
  // Union of every discovered web's nodes: the "is P already in some
  // web of G" test is one bit probe instead of a scan over GWebs.
  NodeSet Assigned = NodeSet::withUniverse(CG.size());

  auto MergeIn = [&GWebs, &Assigned](NodeSet W) {
    // Union overlapping webs of the same variable (Figure 2's merge).
    for (auto It = GWebs.begin(); It != GWebs.end();) {
      if (W.intersects(*It)) {
        W.unionWith(*It);
        It = GWebs.erase(It);
      } else {
        ++It;
      }
    }
    Assigned.unionWith(W);
    GWebs.push_back(std::move(W));
  };

  // Main loop: candidate web entry nodes have G in L_REF, not P_REF.
  for (int P = 0; P < CG.size(); ++P) {
    if (!RS.lref(P).test(G) || RS.pref(P).test(G) || Assigned.count(P))
      continue;
    NodeSet W = NodeSet::withUniverse(CG.size());
    NodeSet Seeds = NodeSet::withUniverse(CG.size());
    Seeds.insert(P);
    growWeb(CG, RS, G, W, std::move(Seeds));
    MergeIn(std::move(W));
  }

  // Cycle case (§4.1.2): nodes of recursive chains that reference G
  // but have G in P_REF all around the cycle never qualify as entry
  // candidates; seed a web with the whole cycle and enlarge it.
  for (int P = 0; P < CG.size(); ++P) {
    if (!RS.lref(P).test(G) || Assigned.count(P))
      continue;
    NodeSet Seeds = NodeSet::withUniverse(CG.size());
    for (int N : CG.sccMembers(CG.sccId(P)))
      Seeds.insert(N);
    NodeSet W = NodeSet::withUniverse(CG.size());
    growWeb(CG, RS, G, W, std::move(Seeds));
    MergeIn(std::move(W));
  }

  // Materialize web records.
  std::vector<Web> Webs;
  for (NodeSet &Nodes : GWebs) {
    Web W;
    W.GlobalId = G;
    W.Nodes = std::move(Nodes);

    finishWeb(CG, RS, W, ReadOnly);
    int LRefNodes = 0;
    for (int N : W.Nodes)
      if (RS.lref(N).test(G))
        ++LRefNodes;

    // Filters (§6.2, §7.4, §7.2).
    if (!Options.AssumeClosedWorld && W.Considered) {
      NodeSet Entries;
      for (int E : W.EntryNodes)
        Entries.insert(E);
      for (int N : W.Nodes) {
        if (!Entries.count(N) && CG.node(N).ExternallyVisible) {
          W.Considered = false;
          W.DiscardReason = "interior node externally visible";
          break;
        }
      }
    }
    const std::string &Name = RS.globalName(G);
    std::string StaticModule = moduleOfQualName(Name);
    if (!StaticModule.empty()) {
      for (int E : W.EntryNodes) {
        if (CG.node(E).Module != StaticModule) {
          W.Considered = false;
          W.DiscardReason = "static web entry crosses modules";
          break;
        }
      }
    }
    if (W.Considered && W.Nodes.size() == 1) {
      int Only = *W.Nodes.begin();
      if (RS.refFreq(Only, G) < MinSingleNodeFreq) {
        W.Considered = false;
        W.DiscardReason = "single node, infrequent";
      }
    }
    if (W.Considered && !W.Nodes.empty()) {
      double Ratio =
          static_cast<double>(LRefNodes) / static_cast<double>(
                                               W.Nodes.size());
      if (Ratio < MinLRefRatio) {
        W.Considered = false;
        W.DiscardReason = "too sparse";
      }
    }
    if (W.Considered && W.Priority <= 0) {
      W.Considered = false;
      W.DiscardReason = "unprofitable";
    }
    // §15 constancy: an exactly-Dead global deserves no register at
    // all — no entry-reachable procedure observes it. Overrides every
    // other verdict (and forestalls splitting below) so the discard
    // reason names the real cause.
    if (DeadGlobal) {
      W.Considered = false;
      W.DiscardReason = "dead global";
    }

    // §7.6.1: a web rejected as too sparse may split into tight
    // sub-webs that pay for their wrap code; they replace the parent.
    if (Options.SplitSparseWebs && !W.Considered &&
        W.DiscardReason == "too sparse") {
      std::vector<Web> Subs = splitSparseWeb(CG, RS, W, ReadOnly);
      if (!Subs.empty()) {
        for (Web &Sub : Subs)
          Webs.push_back(std::move(Sub));
        continue;
      }
    }
    Webs.push_back(std::move(W));
  }
  return Webs;
}

/// The discovery fan-out: PerGlobal[G] = websForGlobal(G) for every G
/// in \p Globals, on the thread pool. Each global fills its own slot.
void discoverGlobals(const CallGraph &CG, const RefSets &RS,
                     const std::vector<int> &Globals,
                     const AnalyzerOptions &Options, const ModRefInfo *MR,
                     std::vector<std::vector<Web>> &PerGlobal) {
  parallelForEach(Globals.size(), resolveThreadCount(Options.NumThreads),
                  [&](size_t I) {
                    PerGlobal[Globals[I]] =
                        websForGlobal(CG, RS, Globals[I], Options, MR);
                  });
}

/// Concatenates \p PerGlobal in global-id order and numbers the webs by
/// position; \p Starts receives each global's segment start and the end.
std::vector<Web> concatenate(std::vector<std::vector<Web>> &PerGlobal,
                             std::vector<int> &Starts) {
  size_t Total = 0;
  for (const std::vector<Web> &GWebs : PerGlobal)
    Total += GWebs.size();
  std::vector<Web> Webs;
  Webs.reserve(Total);
  Starts.clear();
  for (std::vector<Web> &GWebs : PerGlobal) {
    Starts.push_back(static_cast<int>(Webs.size()));
    for (Web &W : GWebs) {
      W.Id = static_cast<int>(Webs.size());
      Webs.push_back(std::move(W));
    }
  }
  Starts.push_back(static_cast<int>(Webs.size()));
  return Webs;
}

} // namespace

std::vector<Web> ipra::buildWebs(const CallGraph &CG, const RefSets &RS,
                                 const AnalyzerOptions &Options,
                                 const ModRefInfo *MR,
                                 std::vector<int> *Starts) {
  // Discovery is independent per global: fan out over the eligible
  // globals, then concatenate the per-global results in global-id order
  // and number the webs — identical output at any thread count.
  std::vector<int> All(static_cast<size_t>(RS.numEligible()));
  std::iota(All.begin(), All.end(), 0);
  std::vector<std::vector<Web>> PerGlobal(All.size());
  discoverGlobals(CG, RS, All, Options, MR, PerGlobal);
  std::vector<int> Segments;
  std::vector<Web> Webs = concatenate(PerGlobal, Segments);
  if (Options.RemergeWebs) {
    remergeWebs(CG, RS, Webs, Options, MR);
    Segments.clear(); // Re-merged webs span globals' segments.
  }
  if (Starts)
    *Starts = std::move(Segments);
  return Webs;
}

void ipra::rediscoverWebs(const CallGraph &CG, const RefSets &RS,
                          const std::vector<int> &Damaged,
                          const AnalyzerOptions &Options, const ModRefInfo *MR,
                          std::vector<Web> &Webs, std::vector<int> &Starts) {
  // Retained segments move into their globals' slots, the damaged
  // globals' slots are then overwritten by fresh discovery, and the
  // whole list is renumbered in global-id order. No web is copied.
  std::vector<std::vector<Web>> PerGlobal(Starts.size() - 1);
  for (size_t G = 0; G < PerGlobal.size(); ++G)
    PerGlobal[G].assign(std::make_move_iterator(Webs.begin() + Starts[G]),
                        std::make_move_iterator(Webs.begin() + Starts[G + 1]));
  discoverGlobals(CG, RS, Damaged, Options, MR, PerGlobal);
  Webs = concatenate(PerGlobal, Starts);
}

std::vector<std::string>
ipra::checkWebInvariants(const CallGraph &CG, const RefSets &RS,
                         const std::vector<Web> &Webs) {
  std::vector<std::string> Problems;
  auto Bad = [&Problems](const Web &W, const std::string &Message) {
    Problems.push_back("web " + std::to_string(W.Id) + " (" +
                       std::to_string(W.GlobalId) + "): " + Message);
  };

  for (const Web &W : Webs) {
    if (W.Nodes.empty()) {
      Bad(W, "empty web");
      continue;
    }

    // Entry/internal predecessor discipline.
    NodeSet Entries;
    for (int E : W.EntryNodes)
      Entries.insert(E);
    for (int N : W.Nodes) {
      bool IsEntry = Entries.count(N);
      for (int P : CG.node(N).Preds) {
        bool Inside = W.Nodes.count(P) != 0;
        if (IsEntry && Inside)
          Bad(W, "entry node " + CG.node(N).QualName +
                     " has an internal predecessor");
        if (!IsEntry && !Inside)
          Bad(W, "internal node " + CG.node(N).QualName +
                     " has external predecessor " + CG.node(P).QualName);
      }
    }

    // Split sub-webs intentionally coexist with other reference regions;
    // their correctness condition is wrap coverage: every call edge out
    // of the web toward a referencing path must be bracketed.
    if (W.IsSplit) {
      int G = W.GlobalId;
      for (int N : W.Nodes) {
        for (int S : CG.node(N).Succs) {
          if (W.Nodes.count(S))
            continue;
          if (!RS.lref(S).test(G) && !RS.cref(S).test(G))
            continue;
          auto It = W.WrapEdges.find(N);
          if (It == W.WrapEdges.end() || !It->second.count(S))
            Bad(W, "missing wrap on call " + CG.node(N).QualName + " -> " +
                       CG.node(S).QualName);
        }
        if (CG.node(N).MakesIndirectCalls) {
          bool AnyReachingTarget = false;
          for (int TId : CG.indirectTargetsOf(N)) {
            const CGNode &T = CG.node(TId);
            if (T.IsAddressTaken && !W.Nodes.count(T.Id) &&
                (RS.lref(T.Id).test(G) || RS.cref(T.Id).test(G)))
              AnyReachingTarget = true;
          }
          if (AnyReachingTarget && !W.WrapIndirect.count(N))
            Bad(W, "missing indirect wrap at " + CG.node(N).QualName);
        }
      }
      continue;
    }

    // Minimal-subgraph property: no ancestor or descendant outside the
    // web references the variable.
    int G = W.GlobalId;
    std::vector<bool> Seen(CG.size(), false);
    std::vector<int> Work;
    auto Sweep = [&](bool Forward) {
      std::fill(Seen.begin(), Seen.end(), false);
      Work.assign(W.Nodes.begin(), W.Nodes.end());
      for (int N : Work)
        Seen[N] = true;
      while (!Work.empty()) {
        int N = Work.back();
        Work.pop_back();
        const auto &Next = Forward ? CG.node(N).Succs : CG.node(N).Preds;
        for (int M : Next) {
          if (Seen[M])
            continue;
          Seen[M] = true;
          if (!W.Nodes.count(M) && RS.lref(M).test(G))
            Bad(W, std::string(Forward ? "descendant " : "ancestor ") +
                       CG.node(M).QualName + " references the variable");
          Work.push_back(M);
        }
      }
    };
    Sweep(/*Forward=*/true);
    Sweep(/*Forward=*/false);
  }

  // Node-disjointness of same-variable webs (word-parallel overlap).
  for (size_t A = 0; A < Webs.size(); ++A)
    for (size_t B = A + 1; B < Webs.size(); ++B) {
      if (Webs[A].GlobalId != Webs[B].GlobalId)
        continue;
      if (Webs[A].Nodes.intersects(Webs[B].Nodes))
        Bad(Webs[A], "overlaps web " + std::to_string(Webs[B].Id));
    }
  return Problems;
}
