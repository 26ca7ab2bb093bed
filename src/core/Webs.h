//===- Webs.h - Global variable webs over the call graph -------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Web identification (§4.1.1-§4.1.2, Figure 2). A web for a global
/// variable is a minimal subgraph of the call graph such that the
/// variable is referenced in no ancestor and no descendant of the
/// subgraph. Candidate entry nodes have the variable in L_REF but not
/// P_REF; webs are grown through successors with the variable in L_REF
/// or C_REF, then enlarged until no node has both internal and external
/// predecessors. Recursive chains whose cycle nodes all carry the
/// variable in P_REF form webs of their own (the cycle-web special case
/// in §4.1.2). Overlapping webs of the same variable merge.
///
/// Web filtering (§6.2) discards webs that are too sparse or consist of
/// a single node with infrequent access; the statics rule (§7.4)
/// discards webs whose entry nodes fall outside the static's module;
/// with AnalyzerOptions::AssumeClosedWorld off (§7.2) webs whose
/// non-entry nodes are externally visible are discarded.
///
/// Web node membership is a NodeSet (bitset over call-graph node ids):
/// growth, merging and disjointness checks are word-parallel, and
/// iteration stays in ascending node order — the same order std::set
/// gave — so every downstream consumer sees identical sequences.
/// Discovery is independent per global variable; with
/// AnalyzerOptions::NumThreads > 1 the per-global discoveries run on a
/// thread pool and are merged in global-id order, making the output
/// byte-identical at any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_WEBS_H
#define IPRA_CORE_WEBS_H

#include "analysis/ModRef.h"
#include "core/AnalyzerOptions.h"
#include "core/RefSets.h"
#include "support/NodeSet.h"

#include <map>
#include <string>
#include <vector>

namespace ipra {

/// One web of a global variable.
struct Web {
  int Id = -1;
  int GlobalId = -1;
  NodeSet Nodes;
  /// Nodes with no predecessor inside the web; they load the variable at
  /// entry and store it back at exit.
  std::vector<int> EntryNodes;
  bool Modifies = false; ///< Some web node stores the variable.
  /// Saturating: sums and products stop at PriorityCap.
  long long Priority = 0;
  static constexpr long long PriorityCap = 1'000'000'000'000'000LL;
  int AssignedReg = -1;          ///< Filled by coloring.
  bool Considered = true;        ///< False when filtered out (§6.2/§7.4).
  bool IsRemerged = false;       ///< Produced by §7.6.1 re-merging.
  std::string DiscardReason;

  // --- §7.6.1 web splitting ---------------------------------------------
  /// True when this web was split off a sparse web: other reference
  /// regions of the variable exist elsewhere in the graph, and the
  /// WrapEdges below keep memory synchronized around calls toward them.
  bool IsSplit = false;
  /// Per web node: successors outside the web whose subtree references
  /// the variable; calls along these edges store the register back
  /// before (when Modifies) and reload it after.
  std::map<int, NodeSet> WrapEdges;
  /// Web nodes whose indirect calls can reach a referencing procedure.
  NodeSet WrapIndirect;

  /// Every field but Id, which is the web's index in its list, with its
  /// key (support/Json.h's Record): the retained analyzer run persists
  /// webs through this list.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("global", S.GlobalId);
    V("nodes", S.Nodes);
    V("entry", S.EntryNodes);
    V("modifies", S.Modifies);
    V("priority", S.Priority);
    V("reg", S.AssignedReg);
    V("considered", S.Considered);
    V("remerged", S.IsRemerged);
    V("discard", S.DiscardReason);
    V("split", S.IsSplit);
    V("wrap-edges", S.WrapEdges);
    V("wrap-indirect", S.WrapIndirect);
  }
};

/// §6.2 filter thresholds. A web whose L_REF nodes make up less than
/// this share of its nodes is "too sparse".
inline constexpr double MinLRefRatio = 0.2;
/// A single-node web must reference its variable at least this often.
inline constexpr long long MinSingleNodeFreq = 2;

/// Identifies every web, computes entry nodes, priorities (weighted
/// reference benefit minus entry-node load/store overhead, §4.1.3) and
/// applies the filters. Reads SplitSparseWebs, RemergeWebs,
/// AssumeClosedWorld and NumThreads of \p Options.
///
/// \p MR optionally feeds the whole-program mod/ref verdicts
/// (DESIGN.md §15) into discovery: webs of an exactly-Dead global are
/// discarded ("dead global" — its registers go to live webs), and webs
/// of an exactly-ReadOnly global drop the Modifies bit before priority
/// and overhead are computed — entry overhead halves, exit-sync
/// writeback and wrap stores disappear downstream. Null reproduces the
/// paper's read-write-assumed behaviour (and is what the reference
/// oracle equivalence suite compares against).
///
/// Discovery runs per global (on a thread pool when NumThreads > 1) and
/// the webs are numbered in global-id order. \p Starts, when set,
/// receives the per-global segments: global g's webs are
/// [Starts[g], Starts[g+1]). It is left empty when §7.6.1 re-merging
/// ran, because re-merged webs no longer belong to one segment.
std::vector<Web> buildWebs(const CallGraph &CG, const RefSets &RS,
                           const AnalyzerOptions &Options = {},
                           const ModRefInfo *MR = nullptr,
                           std::vector<int> *Starts = nullptr);

/// Re-discovers the webs of the globals in \p Damaged (ascending ids)
/// and splices them over \p Webs / \p Starts, a list and its segments
/// as buildWebs left them without re-merging: every other global's
/// segment is kept, and the list is renumbered. The delta analyzer's
/// discovery step; the result equals buildWebs on the same inputs when
/// every global whose inputs changed is in \p Damaged.
void rediscoverWebs(const CallGraph &CG, const RefSets &RS,
                    const std::vector<int> &Damaged,
                    const AnalyzerOptions &Options, const ModRefInfo *MR,
                    std::vector<Web> &Webs, std::vector<int> &Starts);

/// Verification helper used by tests and property suites: returns every
/// violated web invariant (empty = valid). Checks node-disjointness per
/// variable, entry-node predecessor rules, and P_REF/C_REF exclusion.
std::vector<std::string> checkWebInvariants(const CallGraph &CG,
                                            const RefSets &RS,
                                            const std::vector<Web> &Webs);

} // namespace ipra

#endif // IPRA_CORE_WEBS_H
