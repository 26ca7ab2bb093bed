//===- RegSets.cpp - FREE/CALLER/CALLEE/MSPILL computation ------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/RegSets.h"

#include "support/NodeSet.h"

#include <algorithm>
#include <cassert>

using namespace ipra;

namespace {

/// Selects up to \p Count registers from \p From, preferring registers
/// outside \p AvoidLast (Figure 6's Get_Registers with the child-MSPILL
/// priority order of §4.2.4).
RegMask pickRegisters(unsigned Count, RegMask From, RegMask AvoidLast) {
  RegMask Chosen = 0;
  for (RegMask Pass : {From & ~AvoidLast, From & AvoidLast}) {
    for (unsigned R = 0; R < pr32::NumRegs && Count > 0; ++R) {
      if (Pass & pr32::maskOf(R)) {
        Chosen |= pr32::maskOf(R);
        --Count;
      }
    }
    if (Count == 0)
      break;
  }
  return Chosen;
}

/// Topological order of a cluster's nodes (root first); the cluster is a
/// DAG by construction. \p ClusterNodes is the sorted member set
/// (including the root), \p InCluster the membership test, and
/// \p PendingPreds caller-provided scratch valid at the cluster's nodes
/// — universe-sized per-cluster allocations would dominate this pass.
template <typename MemberFn>
std::vector<int> clusterTopoOrder(const CallGraph &CG, const Cluster &C,
                                  const std::vector<int> &ClusterNodes,
                                  MemberFn InCluster,
                                  std::vector<int> &PendingPreds) {
  for (int N : ClusterNodes)
    PendingPreds[N] = 0;
  for (int N : ClusterNodes) {
    if (N == C.Root)
      continue;
    for (int P : CG.node(N).Preds)
      if (InCluster(P))
        ++PendingPreds[N];
  }
  std::vector<int> Order, Ready = {C.Root};
  while (!Ready.empty()) {
    int N = Ready.back();
    Ready.pop_back();
    Order.push_back(N);
    for (int S : CG.node(N).Succs) {
      if (S == C.Root || !InCluster(S))
        continue;
      if (--PendingPreds[S] == 0)
        Ready.push_back(S);
    }
  }
  assert(Order.size() == ClusterNodes.size() && "cluster is not a DAG");
  return Order;
}

} // namespace

std::vector<ProcDirectives> ipra::computeRegisterSets(
    const CallGraph &CG, const std::vector<Cluster> &Clusters,
    const std::vector<Web> &Webs, const RegSetOptions &Options) {
  int N = CG.size();
  std::vector<ProcDirectives> Sets(N); // Standard convention by default.

  // Registers reserved for promoted webs, per node.
  std::vector<RegMask> WebRegs(N, 0);
  for (const Web &W : Webs)
    if (W.AssignedReg >= 0)
      for (int Node : W.Nodes)
        WebRegs[Node] |= pr32::maskOf(static_cast<unsigned>(W.AssignedReg));

  // Which cluster (index) each node roots, if any.
  std::vector<int> RootsCluster(N, -1);
  for (size_t C = 0; C < Clusters.size(); ++C)
    RootsCluster[Clusters[C].Root] = static_cast<int>(C);

  // Bottom-up over cluster roots: deeper roots first. RPO order places
  // dominators first, so reversing it processes children before parents.
  std::vector<int> ClusterOrder;
  for (size_t C = 0; C < Clusters.size(); ++C)
    ClusterOrder.push_back(static_cast<int>(C));
  std::sort(ClusterOrder.begin(), ClusterOrder.end(), [&](int A, int B) {
    return CG.rpoIndex(Clusters[A].Root) > CG.rpoIndex(Clusters[B].Root);
  });

  std::vector<RegMask> Avail(N, 0);
  // Register footprint of a processed cluster (for the improved-FREE
  // extension): every register its subtree may touch without saving.
  std::vector<RegMask> Footprint(N, 0);

  // Per-cluster scratch shared across iterations and stamped by cluster
  // index; clusters are small, so universe-sized allocations per
  // cluster would dominate the pass.
  std::vector<int> Stamp(N, -1), PendingPreds(N, 0), ClusterNodes;
  std::vector<RegMask> Downstream(N, 0);

  for (int CI : ClusterOrder) {
    const Cluster &C = Clusters[CI];
    int R = C.Root;
    ClusterNodes.assign(C.Members.begin(), C.Members.end());
    ClusterNodes.push_back(R);
    std::sort(ClusterNodes.begin(), ClusterNodes.end());
    for (int Node : ClusterNodes)
      Stamp[Node] = CI;
    auto InCluster = [&](int Node) { return Stamp[Node] == CI; };

    // Child MSPILL sets steer the selection order (§4.2.4).
    RegMask ChildMSpill = 0;
    for (int M : C.Members)
      if (RootsCluster[M] >= 0)
        ChildMSpill |= Sets[M].MSpill;

    // Root initialization.
    RegMask StdCallee = pr32::calleeSavedMask();
    RegMask ClusterWebRegs = 0;
    for (int Node : ClusterNodes)
      ClusterWebRegs |= WebRegs[Node];

    Sets[R].Callee = pickRegisters(CG.node(R).CalleeRegsNeeded,
                                   StdCallee & ~WebRegs[R], ChildMSpill);
    Avail[R] = StdCallee & ~Sets[R].Callee;
    if (Options.RelaxWebAvail)
      Avail[R] &= ~WebRegs[R];
    else
      Avail[R] &= ~ClusterWebRegs;

    RegMask Used = 0;
    std::vector<int> Order =
        clusterTopoOrder(CG, C, ClusterNodes, InCluster, PendingPreds);
    for (int Node : Order) {
      if (Node == R)
        continue;
      // AVAIL[N] = intersection of AVAIL over immediate predecessors
      // (property [2] guarantees they are all cluster members).
      RegMask A = ~RegMask(0);
      for (int P : CG.node(Node).Preds)
        A &= Avail[P];
      if (Options.RelaxWebAvail)
        A &= ~WebRegs[Node];
      Avail[Node] = A;

      if (RootsCluster[Node] >= 0) {
        // A member that roots a deeper cluster: move what we can of its
        // MSPILL up, and let it use the overlap of its CALLEE for free.
        Used |= Sets[Node].MSpill & A;
        Sets[Node].MSpill &= ~A;
        Used |= Sets[Node].Callee & A;
        RegMask NewFree = Sets[Node].Callee & A;
        Sets[Node].Free |= NewFree;
        Sets[Node].Callee &= ~NewFree;
        // AVAIL[P] is defined as the registers "available for free use
        // along calls out of P" (§4.2.4). Nothing the child root or its
        // cluster uses without saving qualifies: its new FREE registers
        // hold live values across its calls, and its cluster's footprint
        // is clobbered by the deeper members. Figure 6 elides this
        // subtraction; without it the current cluster would hand a child
        // root's live registers to the child root's successors.
        Avail[Node] &= ~(Sets[Node].Free | Footprint[Node]);
      } else {
        RegMask Free =
            pickRegisters(CG.node(Node).CalleeRegsNeeded, A, ChildMSpill);
        Sets[Node].Free |= Free;
        Avail[Node] &= ~Free;
        Sets[Node].Callee &= ~(Free | Avail[Node]);
        Used |= Free;
      }
    }

    Sets[R].MSpill |= Used;
    Sets[R].IsClusterRoot = true;

    // Post-pass (§4.2.4): callee-saves registers the root spills anyway
    // become caller-saves scratch at interior nodes they flow through.
    for (int Q : C.Members)
      if (RootsCluster[Q] < 0)
        Sets[Q].Caller |= Avail[Q] & Sets[R].MSpill;

    // Optional §7.6.2 extension: a root-spilled register unused on every
    // path below Q may join FREE[Q].
    if (Options.ImprovedFreeSets) {
      for (int Node : ClusterNodes)
        Downstream[Node] = 0;
      for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
        int Node = *It;
        RegMask D = 0;
        for (int S : CG.node(Node).Succs) {
          if (!InCluster(S) || S == R)
            continue;
          RegMask SUse = RootsCluster[S] >= 0
                             ? Footprint[S]
                             : (Sets[S].Free | Avail[S] | WebRegs[S]);
          D |= SUse | Downstream[S];
        }
        Downstream[Node] = D;
      }
      for (int Q : C.Members) {
        if (RootsCluster[Q] >= 0)
          continue;
        // Only registers that flowed down to Q unused (still AVAIL
        // there) qualify: an upstream node may hold live values in its
        // own FREE registers across the call chain to Q.
        RegMask Add = Sets[R].MSpill & Avail[Q] & ~Downstream[Q] &
                      ~WebRegs[Q];
        Sets[Q].Free |= Add;
        // A register upgraded to FREE must not stay in the CALLER
        // augmentation (it now survives calls).
        Sets[Q].Caller &= ~Add;
      }
    }

    // Record this cluster's footprint for enclosing clusters.
    RegMask FP = Sets[R].MSpill | Sets[R].Callee;
    for (int Node : ClusterNodes) {
      FP |= Sets[Node].Free | WebRegs[Node] |
            (Sets[Node].Caller & pr32::calleeSavedMask());
      if (Node != R && RootsCluster[Node] >= 0)
        FP |= Footprint[Node] | Sets[Node].Callee;
    }
    Footprint[R] = FP;
  }
  return Sets;
}

std::vector<std::string> ipra::checkRegisterSetInvariants(
    const CallGraph &CG, const std::vector<Cluster> &Clusters,
    const std::vector<Web> &Webs,
    const std::vector<ProcDirectives> &Sets) {
  std::vector<std::string> Problems;
  int N = CG.size();

  std::vector<RegMask> WebRegs(N, 0);
  for (const Web &W : Webs)
    if (W.AssignedReg >= 0)
      for (int Node : W.Nodes)
        WebRegs[Node] |= pr32::maskOf(static_cast<unsigned>(W.AssignedReg));

  std::vector<bool> IsRoot(N, false);
  for (const Cluster &C : Clusters)
    IsRoot[C.Root] = true;

  for (int Node = 0; Node < N; ++Node) {
    const ProcDirectives &D = Sets[Node];
    const std::string &Name = CG.node(Node).QualName;
    if (D.Free & D.Callee)
      Problems.push_back(Name + ": FREE and CALLEE overlap");
    if (D.Free & ~pr32::calleeSavedMask())
      Problems.push_back(Name + ": FREE contains caller-saves registers");
    if (D.MSpill & ~pr32::calleeSavedMask())
      Problems.push_back(Name + ": MSPILL contains caller-saves registers");
    if (D.Free & WebRegs[Node])
      Problems.push_back(Name + ": FREE contains a web register");
    if (D.MSpill & WebRegs[Node])
      Problems.push_back(Name + ": MSPILL contains a web register");
    if ((D.Caller & pr32::calleeSavedMask()) & WebRegs[Node])
      Problems.push_back(Name + ": CALLER gained a web register");
    if (D.MSpill && !D.IsClusterRoot)
      Problems.push_back(Name + ": MSPILL at a non-root node");
  }

  // Along any call path inside a cluster, a FREE register upstream (a
  // live value may be held in it across the call chain) must not be
  // FREE or caller-saves scratch downstream.
  for (const Cluster &C : Clusters) {
    NodeSet InCluster = NodeSet::withUniverse(CG.size());
    for (int M : C.Members)
      InCluster.insert(M);
    InCluster.insert(C.Root);
    for (int Q : C.Members) {
      // Forward reachability from Q within the cluster.
      NodeSet Seen = NodeSet::withUniverse(CG.size());
      std::vector<int> Work = {Q};
      while (!Work.empty()) {
        int Cur = Work.back();
        Work.pop_back();
        for (int S : CG.node(Cur).Succs) {
          if (!InCluster.count(S) || S == C.Root || Seen.count(S))
            continue;
          Seen.insert(S);
          Work.push_back(S);
        }
      }
      for (int D : Seen) {
        RegMask DownUse =
            Sets[D].Free | (Sets[D].Caller & pr32::calleeSavedMask());
        if (Sets[Q].Free & DownUse)
          Problems.push_back(CG.node(Q).QualName + ": FREE register is "
                             "reused along the path to " +
                             CG.node(D).QualName);
      }
    }
  }

  // FREE registers at any node must be covered by the MSPILL of roots
  // strictly dominating it (some ancestor saves those registers).
  for (int Node = 0; Node < N; ++Node) {
    if (!Sets[Node].Free)
      continue;
    RegMask Covered = 0;
    for (const Cluster &C : Clusters)
      if (C.Root != Node && CG.dominates(C.Root, Node))
        Covered |= Sets[C.Root].MSpill;
    if (Sets[Node].Free & ~Covered)
      Problems.push_back(CG.node(Node).QualName +
                         ": FREE registers not spilled by any dominating "
                         "cluster root");
  }
  return Problems;
}
