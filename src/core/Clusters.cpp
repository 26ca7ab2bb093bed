//===- Clusters.cpp - Spill-code-motion cluster identification --------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/Clusters.h"

#include "support/NodeSet.h"

#include <algorithm>
#include <cstdint>

using namespace ipra;

namespace {

/// True when \p S could become a member of a cluster rooted at \p R:
/// an immediate successor R dominates, non-recursive and reachable.
bool memberCandidate(const CallGraph &CG, int R, int S) {
  return S != R && !CG.isRecursive(S) && CG.isReachable(S) &&
         CG.idom(S) == R;
}

} // namespace

std::vector<Cluster> ipra::identifyClusters(const CallGraph &CG,
                                            bool AssumeClosedWorld) {
  int N = CG.size();

  // Pass 1: the root set — the §4.2.2 heuristic (refined per §7.6.2)
  // compares the calls into R with the calls R makes to immediate
  // successors that could become members. The per-node dynamic call
  // totals come from one ordered walk over the edge-count map rather
  // than a tree lookup per adjacent edge; profiled runs may carry
  // counts for edges absent from the graph, so the walk filters
  // against sorted adjacency (edges without a count contribute 0 to
  // both sums either way).
  std::vector<long long> Incoming(N, 0), Outgoing(N, 0);
  std::vector<uint8_t> AnyCandidate(N, 0);
  {
    std::vector<std::vector<int>> SortedSuccs(N);
    for (int U = 0; U < N; ++U) {
      SortedSuccs[U] = CG.node(U).Succs;
      std::sort(SortedSuccs[U].begin(), SortedSuccs[U].end());
    }
    for (const auto &[Edge, Count] : CG.edgeCounts()) {
      auto [F, T] = Edge;
      const std::vector<int> &SS = SortedSuccs[F];
      if (!std::binary_search(SS.begin(), SS.end(), T))
        continue;
      Incoming[T] += Count;
      if (memberCandidate(CG, F, T))
        Outgoing[F] += Count;
    }
    // Start nodes are invoked once from outside the program graph.
    for (int S : CG.startNodes())
      Incoming[S] += 1;
    for (int U = 0; U < N; ++U)
      for (int S : CG.node(U).Succs)
        if (memberCandidate(CG, U, S)) {
          AnyCandidate[U] = 1;
          break;
        }
  }

  std::vector<bool> IsRoot(N, false);
  for (int R : CG.rpo())
    IsRoot[R] = AnyCandidate[R] &&
                static_cast<double>(Outgoing[R]) >
                    RootBenefitThreshold * static_cast<double>(Incoming[R]);

  // Nearest dominating root of a node (walking the idom chain,
  // excluding the node itself).
  auto NearestRoot = [&](int Node) {
    int D = CG.idom(Node);
    while (D >= 0) {
      if (IsRoot[D])
        return D;
      D = CG.idom(D);
    }
    return -1;
  };

  // Pass 2: grow each root's cluster. Roots are processed in RPO
  // (dominators precede dominated nodes), which realizes Figure 5's
  // postpone-visit order: a node is added only after every predecessor
  // is already a member.
  //
  // Membership and the frontier use generation-stamped scratch arrays
  // shared across roots: per-root universe-sized bitsets would cost
  // O(roots x nodes) in allocation alone. The frontier is sorted before
  // the admission scan so candidates are still visited in ascending
  // node id, exactly the order the bitset iteration produced.
  std::vector<int> ClusterOf(CG.size(), -1);
  std::vector<Cluster> Clusters;
  std::vector<int> MemberStamp(N, -1), FrontierStamp(N, -1);
  std::vector<int> Frontier;
  int Generation = 0;
  for (int R : CG.rpo()) {
    if (!IsRoot[R])
      continue;
    Cluster C;
    C.Root = R;
    auto InCluster = [&](int Node) { return MemberStamp[Node] == R; };
    MemberStamp[R] = R;

    bool Grew = true;
    while (Grew) {
      Grew = false;
      // Candidate frontier: successors of members (or the root) that
      // are not yet members. Expansion does not continue past member
      // nodes that root deeper clusters (their own cluster covers their
      // subtree).
      ++Generation;
      Frontier.clear();
      auto AddSuccs = [&](int Node) {
        for (int S : CG.node(Node).Succs)
          if (!InCluster(S) && FrontierStamp[S] != Generation) {
            FrontierStamp[S] = Generation;
            Frontier.push_back(S);
          }
      };
      AddSuccs(R);
      for (int M : C.Members)
        if (!IsRoot[M])
          AddSuccs(M);
      std::sort(Frontier.begin(), Frontier.end());

      for (int S : Frontier) {
        if (!CG.isReachable(S) || S == R)
          continue;
        // No recursive call cycles within clusters (§4.2.2).
        if (CG.isRecursive(S))
          continue;
        // Partial call graphs (§7.2): unknown callers could reach an
        // exported procedure directly, bypassing the cluster root.
        if (!AssumeClosedWorld && CG.node(S).ExternallyVisible)
          continue;
        // Property [3]: nearest dominating root must be R.
        if (ClusterOf[S] != -1 || NearestRoot(S) != R)
          continue;
        // Property [2]: every immediate predecessor already a member.
        bool AllPredsIn = true;
        for (int P : CG.node(S).Preds)
          if (!InCluster(P)) {
            AllPredsIn = false;
            break;
          }
        if (!AllPredsIn)
          continue;
        MemberStamp[S] = R;
        C.Members.push_back(S);
        ClusterOf[S] = static_cast<int>(Clusters.size());
        Grew = true;
      }
    }

    if (!C.Members.empty())
      Clusters.push_back(std::move(C));
    else
      IsRoot[R] = false; // Nothing joined; not a cluster after all.
  }
  return Clusters;
}

std::vector<std::string> ipra::checkClusterInvariants(
    const CallGraph &CG, const std::vector<Cluster> &Clusters) {
  std::vector<std::string> Problems;
  std::vector<int> MemberOf(CG.size(), -1);

  for (size_t CI = 0; CI < Clusters.size(); ++CI) {
    const Cluster &C = Clusters[CI];
    NodeSet InCluster = NodeSet::withUniverse(CG.size());
    for (int M : C.Members)
      InCluster.insert(M);
    InCluster.insert(C.Root);

    for (int M : C.Members) {
      // [3]: unique membership.
      if (MemberOf[M] != -1)
        Problems.push_back("node " + CG.node(M).QualName +
                           " belongs to two clusters");
      MemberOf[M] = static_cast<int>(CI);
      // [1]: the root dominates every member.
      if (!CG.dominates(C.Root, M))
        Problems.push_back("root " + CG.node(C.Root).QualName +
                           " does not dominate member " +
                           CG.node(M).QualName);
      // [2]: members' predecessors are inside the cluster.
      for (int P : CG.node(M).Preds)
        if (!InCluster.count(P))
          Problems.push_back("member " + CG.node(M).QualName +
                             " has predecessor " + CG.node(P).QualName +
                             " outside the cluster");
      // No recursion among members.
      if (CG.isRecursive(M))
        Problems.push_back("member " + CG.node(M).QualName +
                           " is recursive");
    }
    // No two members (or member+root) share a nontrivial SCC.
    for (int A : InCluster)
      for (int B : InCluster)
        if (A < B && CG.sccId(A) == CG.sccId(B))
          Problems.push_back("cluster of " + CG.node(C.Root).QualName +
                             " contains a call cycle");
  }
  return Problems;
}
