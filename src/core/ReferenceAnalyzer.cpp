//===- ReferenceAnalyzer.cpp - Seed-style analyzer oracle -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
// The pre-scaling algorithms, kept as an equivalence oracle and perf
// baseline. Deliberately NOT refactored to share helpers with the
// optimized implementations: sharing would let a bug cancel itself out
// of the comparison.
//
//===----------------------------------------------------------------------===//

#include "core/ReferenceAnalyzer.h"

#include <algorithm>
#include <map>
#include <set>

using namespace ipra;
using ipra::reference::FixpointRefSets;

FixpointRefSets::FixpointRefSets(const CallGraph &CG, const RefSets &RS) {
  size_t N = CG.size();
  size_t E = static_cast<size_t>(RS.numEligible());
  PRef.assign(N, DynBitset(E));
  CRef.assign(N, DynBitset(E));
  if (E == 0)
    return;

  // P_REF: top-down fixpoint, visiting RPO order first and then any
  // nodes unreachable from the starts (the seed's convergence order).
  std::vector<int> Order = CG.rpo();
  for (int Node = 0; Node < CG.size(); ++Node)
    if (!CG.isReachable(Node))
      Order.push_back(Node);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int Node : Order) {
      for (int P : CG.node(Node).Preds) {
        DynBitset In = PRef[P];
        In.unionWith(RS.lref(P));
        Changed |= PRef[Node].unionWith(In);
      }
    }
  }

  // C_REF: bottom-up fixpoint.
  Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
      int Node = *It;
      for (int S : CG.node(Node).Succs) {
        DynBitset In = CRef[S];
        In.unionWith(RS.lref(S));
        Changed |= CRef[Node].unionWith(In);
      }
    }
  }
}

namespace {

constexpr long long PriorityCap = 1'000'000'000'000'000LL;

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

/// Figure 2's Expand_Web on std::set.
void expandWeb(const CallGraph &CG, const RefSets &RS, int G,
               std::set<int> &W, int Seed) {
  std::vector<int> Stack = {Seed};
  while (!Stack.empty()) {
    int Q = Stack.back();
    Stack.pop_back();
    if (W.count(Q))
      continue;
    W.insert(Q);
    for (int S : CG.node(Q).Succs)
      if (!W.count(S) && (RS.cref(S).test(G) || RS.lref(S).test(G)))
        Stack.push_back(S);
  }
}

/// The repeat/until loop of Figure 2 on std::set.
void growWeb(const CallGraph &CG, const RefSets &RS, int G,
             std::set<int> &W, std::set<int> Seeds) {
  while (true) {
    for (int Q : Seeds)
      expandWeb(CG, RS, G, W, Q);
    std::set<int> NewSeeds;
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
            NewSeeds.insert(P);
    }
    if (NewSeeds.empty())
      return;
    Seeds = std::move(NewSeeds);
  }
}

std::string moduleOfQualName(const std::string &QualName) {
  size_t Colon = QualName.find(':');
  return Colon == std::string::npos ? "" : QualName.substr(0, Colon);
}

void closeSplitWeb(const CallGraph &CG, std::set<int> &W) {
  while (true) {
    std::set<int> Absorb;
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
            Absorb.insert(P);
    }
    if (Absorb.empty())
      return;
    W.insert(Absorb.begin(), Absorb.end());
  }
}

NodeSet toNodeSet(const std::set<int> &S) {
  NodeSet Out;
  for (int N : S)
    Out.insert(N);
  return Out;
}

void finishWeb(const CallGraph &CG, const RefSets &RS, Web &W) {
  W.EntryNodes.clear();
  W.Modifies = false;
  long long Benefit = 0;
  for (int N : W.Nodes) {
    if (RS.refStores(N, W.GlobalId))
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

/// §7.6.1 re-merging, element-wise as the seed did it.
void remergeWebs(const CallGraph &CG, const RefSets &RS,
                 std::vector<Web> &Webs, const AnalyzerOptions &Options) {
  auto commonDominator = [&](int A, int B) {
    std::set<int> Chain;
    for (int N = A; N >= 0; N = CG.idom(N))
      Chain.insert(N);
    for (int N = B; N >= 0; N = CG.idom(N))
      if (Chain.count(N))
        return N;
    return -1;
  };

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

        int Dom = -1;
        for (const Web *W : {&Webs[A], &Webs[B]})
          for (int E : W->EntryNodes)
            Dom = Dom == -1 ? E : commonDominator(Dom, E);
        if (Dom == -1)
          continue;

        std::set<int> Union;
        for (int N : Webs[A].Nodes)
          Union.insert(N);
        for (int N : Webs[B].Nodes)
          Union.insert(N);
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

        std::set<int> MergedNodes;
        bool TouchesSplitWeb = false;
        bool Grew = true;
        while (Grew && !TouchesSplitWeb) {
          Grew = false;
          MergedNodes.clear();
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
              if (Union.insert(N).second)
                Grew = true;
          }
        }
        if (TouchesSplitWeb)
          continue;

        Web Merged;
        Merged.GlobalId = G;
        Merged.Nodes = toNodeSet(MergedNodes);
        Merged.IsRemerged = true;
        finishWeb(CG, RS, Merged);

        if (!Options.AssumeClosedWorld) {
          std::set<int> Entries(Merged.EntryNodes.begin(),
                                Merged.EntryNodes.end());
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

        long long PairPriority = 0;
        std::vector<size_t> Absorbed;
        for (size_t C = 0; C < Webs.size(); ++C) {
          if (Webs[C].GlobalId != G)
            continue;
          bool Overlaps = false;
          for (int N : Webs[C].Nodes)
            if (MergedNodes.count(N)) {
              Overlaps = true;
              break;
            }
          if (Overlaps) {
            Absorbed.push_back(C);
            if (Webs[C].Considered)
              PairPriority = capAdd(PairPriority, Webs[C].Priority);
          }
        }
        if (Merged.Priority <= PairPriority || Merged.Priority <= 0)
          continue;

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

/// §7.6.1 splitting on std::set components.
std::vector<Web> splitSparseWeb(const CallGraph &CG, const RefSets &RS,
                                const std::set<int> &ParentNodes, int G) {
  std::vector<int> RefNodes;
  for (int N : ParentNodes)
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
        if (RS.lref(M).test(G) && ParentNodes.count(M) &&
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
    return {};

  std::vector<std::set<int>> SubNodes(NumComponents);
  for (auto &[Node, Id] : Component)
    SubNodes[Id].insert(Node);
  for (auto &W : SubNodes)
    closeSplitWeb(CG, W);
  std::vector<std::set<int>> Merged;
  for (std::set<int> W : SubNodes) {
    bool Absorbed = true;
    while (Absorbed) {
      Absorbed = false;
      for (auto It = Merged.begin(); It != Merged.end(); ++It) {
        bool Overlaps = false;
        for (int N : W)
          if (It->count(N)) {
            Overlaps = true;
            break;
          }
        if (Overlaps) {
          W.insert(It->begin(), It->end());
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

  std::vector<Web> Out;
  for (const std::set<int> &Nodes : Merged) {
    Web W;
    W.GlobalId = G;
    W.IsSplit = true;
    W.Nodes = toNodeSet(Nodes);

    long long Benefit = 0;
    for (int N : Nodes) {
      if (RS.refStores(N, G))
        W.Modifies = true;
      Benefit =
          capAdd(Benefit, capMul(RS.refFreq(N, G), CG.invocationCount(N)));
    }

    long long Overhead = 0;
    for (int N : Nodes) {
      bool HasInternalPred = false;
      for (int P : CG.node(N).Preds)
        if (Nodes.count(P)) {
          HasInternalPred = true;
          break;
        }
      if (!HasInternalPred) {
        W.EntryNodes.push_back(N);
        Overhead = capAdd(Overhead, capMul(CG.invocationCount(N),
                                           W.Modifies ? 2 : 1));
      }
      for (int S : CG.node(N).Succs) {
        if (Nodes.count(S))
          continue;
        if (RS.lref(S).test(G) || RS.cref(S).test(G)) {
          W.WrapEdges[N].insert(S);
          Overhead = capAdd(Overhead, capMul(CG.edgeCount(N, S),
                                             W.Modifies ? 2 : 1));
        }
      }
      if (CG.node(N).MakesIndirectCalls) {
        for (const CGNode &T : CG.nodes()) {
          if (!T.IsAddressTaken || Nodes.count(T.Id))
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

} // namespace

std::vector<Web> reference::buildWebs(const CallGraph &CG,
                                      const RefSets &RS,
                                      const AnalyzerOptions &Options) {
  std::vector<Web> Webs;

  for (int G = 0; G < RS.numEligible(); ++G) {
    std::vector<std::set<int>> GWebs;

    auto InSomeWeb = [&GWebs](int Node) {
      for (const std::set<int> &W : GWebs)
        if (W.count(Node))
          return true;
      return false;
    };
    auto MergeIn = [&GWebs](std::set<int> W) {
      for (auto It = GWebs.begin(); It != GWebs.end();) {
        bool Overlaps = false;
        for (int N : *It)
          if (W.count(N)) {
            Overlaps = true;
            break;
          }
        if (Overlaps) {
          W.insert(It->begin(), It->end());
          It = GWebs.erase(It);
        } else {
          ++It;
        }
      }
      GWebs.push_back(std::move(W));
    };

    for (int P = 0; P < CG.size(); ++P) {
      if (!RS.lref(P).test(G) || RS.pref(P).test(G) || InSomeWeb(P))
        continue;
      std::set<int> W;
      growWeb(CG, RS, G, W, {P});
      MergeIn(std::move(W));
    }

    for (int P = 0; P < CG.size(); ++P) {
      if (!RS.lref(P).test(G) || InSomeWeb(P))
        continue;
      std::set<int> Seeds;
      for (int N = 0; N < CG.size(); ++N)
        if (CG.sccId(N) == CG.sccId(P))
          Seeds.insert(N);
      std::set<int> W;
      growWeb(CG, RS, G, W, Seeds);
      MergeIn(std::move(W));
    }

    for (std::set<int> &Nodes : GWebs) {
      Web W;
      W.Id = static_cast<int>(Webs.size());
      W.GlobalId = G;
      W.Nodes = toNodeSet(Nodes);

      int LRefNodes = 0;
      long long Benefit = 0;
      for (int N : Nodes) {
        if (RS.lref(N).test(G))
          ++LRefNodes;
        if (RS.refStores(N, G))
          W.Modifies = true;
        Benefit = capAdd(
            Benefit, capMul(RS.refFreq(N, G), CG.invocationCount(N)));
      }
      long long EntryOverhead = 0;
      for (int N : Nodes) {
        bool HasInternalPred = false;
        for (int P : CG.node(N).Preds)
          if (Nodes.count(P)) {
            HasInternalPred = true;
            break;
          }
        if (!HasInternalPred) {
          W.EntryNodes.push_back(N);
          EntryOverhead = capAdd(
              EntryOverhead,
              capMul(CG.invocationCount(N), W.Modifies ? 2 : 1));
        }
      }
      W.Priority = Benefit - EntryOverhead;

      if (!Options.AssumeClosedWorld && W.Considered) {
        std::set<int> Entries(W.EntryNodes.begin(), W.EntryNodes.end());
        for (int N : Nodes) {
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
      if (W.Considered && Nodes.size() == 1) {
        int Only = *Nodes.begin();
        if (RS.refFreq(Only, G) < MinSingleNodeFreq) {
          W.Considered = false;
          W.DiscardReason = "single node, infrequent";
        }
      }
      if (W.Considered && !Nodes.empty()) {
        double Ratio =
            static_cast<double>(LRefNodes) / static_cast<double>(
                                                 Nodes.size());
        if (Ratio < MinLRefRatio) {
          W.Considered = false;
          W.DiscardReason = "too sparse";
        }
      }
      if (W.Considered && W.Priority <= 0) {
        W.Considered = false;
        W.DiscardReason = "unprofitable";
      }

      if (Options.SplitSparseWebs && !W.Considered &&
          W.DiscardReason == "too sparse") {
        std::vector<Web> Subs = splitSparseWeb(CG, RS, Nodes, G);
        if (!Subs.empty()) {
          for (Web &Sub : Subs) {
            Sub.Id = static_cast<int>(Webs.size());
            Webs.push_back(std::move(Sub));
          }
          continue;
        }
      }
      W.Id = static_cast<int>(Webs.size());
      Webs.push_back(std::move(W));
    }
  }
  if (Options.RemergeWebs)
    remergeWebs(CG, RS, Webs, Options);
  return Webs;
}

namespace {

long long incomingCalls(const CallGraph &CG, int Node) {
  long long In = 0;
  for (int P : CG.node(Node).Preds)
    In += CG.edgeCount(P, Node);
  for (int S : CG.startNodes())
    if (S == Node)
      In += 1;
  return In;
}

bool isRootCandidate(const CallGraph &CG, int R) {
  if (!CG.isReachable(R))
    return false;
  long long Outgoing = 0;
  bool AnyCandidate = false;
  for (int S : CG.node(R).Succs) {
    if (S == R || CG.isRecursive(S) || !CG.isReachable(S))
      continue;
    if (CG.idom(S) != R)
      continue;
    AnyCandidate = true;
    Outgoing += CG.edgeCount(R, S);
  }
  if (!AnyCandidate)
    return false;
  long long Incoming = incomingCalls(CG, R);
  return static_cast<double>(Outgoing) >
         RootBenefitThreshold * static_cast<double>(Incoming);
}

} // namespace

std::vector<Cluster>
reference::identifyClusters(const CallGraph &CG, bool AssumeClosedWorld) {
  std::vector<bool> IsRoot(CG.size(), false);
  for (int N : CG.rpo())
    IsRoot[N] = isRootCandidate(CG, N);

  auto NearestRoot = [&](int Node) {
    int D = CG.idom(Node);
    while (D >= 0) {
      if (IsRoot[D])
        return D;
      D = CG.idom(D);
    }
    return -1;
  };

  std::vector<int> ClusterOf(CG.size(), -1);
  std::vector<Cluster> Clusters;
  for (int R : CG.rpo()) {
    if (!IsRoot[R])
      continue;
    Cluster C;
    C.Root = R;
    std::set<int> InCluster = {R};

    bool Grew = true;
    while (Grew) {
      Grew = false;
      std::set<int> Frontier;
      auto AddSuccs = [&](int N) {
        for (int S : CG.node(N).Succs)
          if (!InCluster.count(S))
            Frontier.insert(S);
      };
      AddSuccs(R);
      for (int M : C.Members)
        if (!IsRoot[M])
          AddSuccs(M);

      for (int S : Frontier) {
        if (!CG.isReachable(S) || S == R)
          continue;
        if (CG.isRecursive(S))
          continue;
        if (!AssumeClosedWorld && CG.node(S).ExternallyVisible)
          continue;
        if (ClusterOf[S] != -1 || NearestRoot(S) != R)
          continue;
        bool AllPredsIn = true;
        for (int P : CG.node(S).Preds)
          if (!InCluster.count(P)) {
            AllPredsIn = false;
            break;
          }
        if (!AllPredsIn)
          continue;
        InCluster.insert(S);
        C.Members.push_back(S);
        ClusterOf[S] = static_cast<int>(Clusters.size());
        Grew = true;
      }
    }

    if (!C.Members.empty())
      Clusters.push_back(std::move(C));
    else
      IsRoot[R] = false;
  }
  return Clusters;
}
