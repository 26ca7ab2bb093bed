//===- CallGraph.h - Program call graph ------------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program call graph the analyzer builds from all summary files
/// (§4). Nodes are procedures (qualified names). Direct calls come from
/// the summaries; every procedure that makes indirect calls gets a
/// conservative edge to every address-taken procedure (§7.3) — unless
/// the module's points-to analysis proved the exact target set, in
/// which case only those edges are added and indirectTargetsOf()
/// reports the proven set for wrap placement.
///
/// The same analysis supplies per-module escape verdicts for the
/// Aliased bit: a global counts as aliased only if some module both
/// takes its address and fails to refute the escape (the address
/// leaving a module is itself an escape, so each module's verdict
/// covers its own contribution and the OR over modules is sound).
///
/// Call-count estimation follows §6.2: the raw per-invocation heuristic
/// frequencies are normalized over the whole graph by propagating
/// invocation estimates from the start nodes, with extra weight on
/// recursive arcs and arcs to leaf procedures. When profile data is
/// supplied, measured counts replace the heuristics (§6.1 columns B/F).
///
/// The graph also provides SCCs (recursion detection for clusters, §4.2.2
/// and web cycle handling, §4.1.2) and a dominator tree rooted at a
/// virtual start (cluster property [1], §4.2.1).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CALLGRAPH_CALLGRAPH_H
#define IPRA_CALLGRAPH_CALLGRAPH_H

#include "summary/Summary.h"
#include "support/CallProfile.h"
#include "support/Graph.h"

#include <map>
#include <span>
#include <string>
#include <vector>

namespace ipra {

/// One call-graph node.
struct CGNode {
  int Id = -1;
  std::string QualName;
  std::string Module;
  unsigned CalleeRegsNeeded = 0;
  /// Mask of caller-saves registers the trial codegen used (§7.6.2).
  unsigned CallerRegsUsed = 0;
  bool MakesIndirectCalls = false;
  bool IsAddressTaken = false;
  /// False for placeholder nodes created for called-but-unsummarized
  /// procedures; everything about them is assumed worst-case.
  bool HasSummary = false;
  /// Exported (unqualified) procedures are visible outside the analyzed
  /// set of modules; under a partial call graph (§7.2) they may have
  /// unknown callers. Address-taken procedures count as visible too.
  bool ExternallyVisible = false;
  /// Summarized global accesses (qualified names).
  std::vector<GlobalRefSummary> GlobalRefs;
  std::vector<int> Succs, Preds; ///< Deduplicated adjacency.
};

/// The whole-program call graph plus derived analyses.
class CallGraph {
public:
  /// Builds the graph from every module's summary. \p Profile may be
  /// empty (heuristic counts are used then). \p UsePointsTo consumes
  /// the summaries' escape verdicts and resolved indirect-target sets;
  /// false ignores them, reproducing the paper's conservative graph
  /// (fact-free summaries build the identical graph either way).
  CallGraph(const std::vector<ModuleSummary> &Summaries,
            const CallProfile &Profile = {}, bool UsePointsTo = true);

  int size() const { return static_cast<int>(Nodes.size()); }
  const CGNode &node(int Id) const { return Nodes[Id]; }
  CGNode &node(int Id) { return Nodes[Id]; }
  const std::vector<CGNode> &nodes() const { return Nodes; }

  /// One procedure whose summary record changed in place (same name,
  /// same node id): the target of an incremental re-point.
  struct ProcPatch {
    int Node = -1;
    const ProcSummary *New = nullptr;
  };

  /// Incremental maintenance for the delta analyzer: re-points the
  /// summarized fields and out-edges of each patched node at its new
  /// summary record, re-merges the global facts from \p Summaries, and
  /// recomputes every derived analysis (starts, RPO, SCCs, dominators,
  /// invocation estimates) from scratch. The node universe and id
  /// assignment are left untouched, and out-edge order replicates what
  /// a cold construction over the new summaries would produce, so all
  /// derived results are identical to a cold rebuild.
  ///
  /// Returns false — *without mutating the graph* — when the change
  /// cannot be expressed under the retained id assignment: a patched
  /// record references an unsummarized procedure (placeholder creation
  /// order could shift), or the merged global facts change in any field
  /// the promotion-eligibility rules read. \p FallbackReason then says
  /// why; the caller should rebuild cold.
  bool applyProcDelta(const std::vector<ModuleSummary> &Summaries,
                      const CallProfile &Profile,
                      const std::vector<ProcPatch> &Patches,
                      std::string &FallbackReason);

  /// All invocation estimates, indexed by node id (the delta analyzer
  /// snapshots these around applyProcDelta to find damaged nodes).
  const std::vector<long long> &invocations() const { return Invocations; }

  /// Node id for a qualified name, or -1.
  int findNode(const std::string &QualName) const;

  /// Estimated (or measured) number of invocations of \p Node.
  long long invocationCount(int Node) const { return Invocations[Node]; }
  /// Estimated (or measured) dynamic count of calls along edge.
  long long edgeCount(int From, int To) const;
  /// Every known edge count in (from, to) key order. Profiled runs may
  /// carry counts for edges absent from the graph; consumers summing
  /// over graph edges must filter against the adjacency lists.
  const std::map<std::pair<int, int>, long long> &edgeCounts() const {
    return EdgeCounts;
  }

  /// Global facts unioned across modules.
  const std::map<std::string, GlobalSummary> &globals() const {
    return GlobalFacts;
  }

  /// Start nodes: main plus every procedure without callers.
  const std::vector<int> &startNodes() const { return Starts; }

  /// The SCCs, numbered callee-first (support/Graph.h): a cross-SCC
  /// edge u -> v has sccId(v) < sccId(u). A value, so the delta analyzer
  /// can snapshot it around applyProcDelta.
  struct SccPartition {
    std::vector<int> Ids;     ///< SCC id per node.
    std::vector<int> Nodes;   ///< Every SCC's members, SCC by SCC.
    std::vector<int> Begin;   ///< SCC id -> first index in Nodes; + end.
    std::vector<char> Cyclic; ///< More than one member, or a self loop.

    int size() const { return static_cast<int>(Cyclic.size()); }
    /// Members of SCC \p Scc in ascending node id.
    std::span<const int> members(int Scc) const {
      return {Nodes.data() + Begin[Scc], Nodes.data() + Begin[Scc + 1]};
    }
  };
  const SccPartition &sccs() const { return Sccs; }
  int numSccs() const { return Sccs.size(); }
  std::span<const int> sccMembers(int Scc) const { return Sccs.members(Scc); }
  bool sccIsCyclic(int Scc) const { return Sccs.Cyclic[Scc]; }
  int sccId(int Node) const { return Sccs.Ids[Node]; }
  /// True for members of cyclic SCCs.
  bool isRecursive(int Node) const { return sccIsCyclic(sccId(Node)); }

  /// Immediate dominator in the call graph (-1 for start nodes, -2 for
  /// unreachable ones).
  int idom(int Node) const { return IDom[Node]; }
  /// Returns true if A dominates B (reflexive). Unreachable nodes are
  /// dominated by nothing and dominate nothing (except themselves).
  bool dominates(int A, int B) const;
  bool isReachable(int Node) const { return Order.reached(Node); }

  /// Nodes in reverse post-order from the virtual root.
  const std::vector<int> &rpo() const { return Order.Rpo; }
  /// \p Node's position in rpo(), -1 if unreachable.
  int rpoIndex(int Node) const { return Order.RpoIndex[Node]; }

  /// The procedures an indirect call made by \p Node may invoke: the
  /// proven target set when the summaries resolved it, otherwise every
  /// address-taken procedure (§7.3), in node-id order. Meaningful only
  /// for nodes with MakesIndirectCalls.
  const std::vector<int> &indirectTargetsOf(int Node) const;
  /// True when \p Node's indirect calls were narrowed to a proven set.
  bool indirectResolved(int Node) const {
    return ResolvedIndTargets.count(Node) != 0;
  }

  /// Globals whose Aliased bit was dropped by the escape verdicts.
  unsigned escapesRefuted() const { return NumEscapesRefuted; }
  /// Indirect-calling procedures whose edges were narrowed.
  unsigned indirectCallersResolved() const {
    return static_cast<unsigned>(ResolvedIndTargets.size());
  }

  /// Renders the graph for debugging.
  std::string toString() const;

private:
  void addEdge(int From, int To, long long Freq);
  void rebuildDerived(const CallProfile &Profile);
  void computeInvocations(const CallProfile &Profile);
  void mergeGlobalFacts(const std::vector<ModuleSummary> &Summaries,
                        std::map<std::string, GlobalSummary> &Facts,
                        unsigned &Refuted) const;

  bool UsePointsTo = true;
  std::vector<CGNode> Nodes;
  std::map<std::string, int> NameToId;
  std::map<std::string, GlobalSummary> GlobalFacts;
  /// Per-invocation local call frequency per edge (heuristic).
  std::map<std::pair<int, int>, long long> LocalFreq;
  /// Estimated dynamic call count per edge.
  std::map<std::pair<int, int>, long long> EdgeCounts;
  std::vector<long long> Invocations;
  std::vector<int> Starts;
  /// Address-taken node ids in node-id order (the §7.3 fallback).
  std::vector<int> AddrTakenIds;
  /// Proven indirect-target ids per resolved indirect caller.
  std::map<int, std::vector<int>> ResolvedIndTargets;
  unsigned NumEscapesRefuted = 0;
  DfsOrder Order; ///< From the start nodes.
  SccPartition Sccs;
  std::vector<int> IDom;
};

} // namespace ipra

#endif // IPRA_CALLGRAPH_CALLGRAPH_H
