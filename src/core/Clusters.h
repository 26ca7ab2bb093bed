//===- Clusters.h - Spill-code-motion cluster identification ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cluster identification (§4.2.1-§4.2.2, Figure 5). A cluster is a set
/// of call-graph nodes such that
///   [1] one node R (the root) dominates every member;
///   [2] every non-root member's immediate predecessors are all in the
///       cluster;
///   [3] a node joins only the cluster of its nearest dominating root;
/// and no recursive call cycle lies within a cluster. Root candidates
/// are chosen by comparing incoming call counts against the call counts
/// to dominated immediate successors: hoisting save/restore code to R
/// pays off when the members are called more often than R itself.
///
/// A cluster's leaf may be the root of another cluster, which is what
/// lets MSPILL sets migrate upward across clusters (§4.2.4).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_CLUSTERS_H
#define IPRA_CORE_CLUSTERS_H

#include "callgraph/CallGraph.h"

#include <string>
#include <vector>

namespace ipra {

/// One identified cluster.
struct Cluster {
  int Root = -1;
  /// Members excluding the root; a member may itself be the root of a
  /// deeper cluster.
  std::vector<int> Members;
};

/// The §4.2.2 root heuristic: a node is accepted as a root when
/// (calls out to dominated successors) > RootBenefitThreshold *
/// (incoming calls).
inline constexpr double RootBenefitThreshold = 1.0;

/// Identifies every cluster in \p CG. With \p AssumeClosedWorld false
/// (§7.2, a partial call graph) externally visible procedures may have
/// unknown callers and join no cluster as members (property [2] would
/// be unverifiable).
std::vector<Cluster> identifyClusters(const CallGraph &CG,
                                      bool AssumeClosedWorld = true);

/// Verification helper for tests: checks properties [1]-[3] and the
/// no-recursion rule; returns violations (empty = valid).
std::vector<std::string> checkClusterInvariants(
    const CallGraph &CG, const std::vector<Cluster> &Clusters);

} // namespace ipra

#endif // IPRA_CORE_CLUSTERS_H
