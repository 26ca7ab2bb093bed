//===- RegSets.h - FREE/CALLER/CALLEE/MSPILL computation --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the per-procedure register usage sets (§4.2.3) by walking
/// cluster roots bottom-up and running Preallocate_Node (Figure 6) over
/// each cluster:
///
///  - the cluster root's own callee-saves needs become CALLEE[R]; the
///    remaining callee-saves registers are AVAIL and flow down the
///    cluster (intersected over predecessors);
///  - interior nodes pre-allocate FREE registers from AVAIL according to
///    their estimated need;
///  - a member that roots a deeper cluster donates the AVAIL part of its
///    MSPILL set upward (spill code motion across clusters) and turns
///    its CALLEE overlap into FREE registers;
///  - everything handed out is accumulated into USED and finally into
///    MSPILL[R]: the root saves and restores those registers whether it
///    uses them or not;
///  - the post-pass adds AVAIL[Q] ∩ MSPILL[R] to CALLER[Q] at interior
///    nodes (registers the root spills anyway are free scratch there).
///
/// Registers dedicated to promoted-global webs are removed from the
/// root's AVAIL (base algorithm) or, with the §7.6.2 extension enabled,
/// only at the nodes the web actually covers. A second §7.6.2 extension
/// optionally widens FREE sets with root-spilled registers unused on
/// every path below a node.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_REGSETS_H
#define IPRA_CORE_REGSETS_H

#include "core/Clusters.h"
#include "core/Webs.h"
#include "target/Directives.h"

#include <string>
#include <vector>

namespace ipra {

/// Computes FREE/CALLER/CALLEE/MSPILL for every node. The returned
/// vector is indexed by call-graph node id; nodes outside every cluster
/// keep the standard convention. Promoted-web registers are reserved at
/// covered nodes via the Promoted lists filled in by the analyzer (not
/// here). Reads the §7.6.2 knobs RelaxWebAvail and ImprovedFreeSets of
/// \p Options.
std::vector<ProcDirectives> computeRegisterSets(
    const CallGraph &CG, const std::vector<Cluster> &Clusters,
    const std::vector<Web> &Webs, const AnalyzerOptions &Options = {});

/// Verification helper: register-set soundness (sets are disjoint where
/// required, FREE at interior nodes is covered by the root's MSPILL,
/// CALLER additions are root-spilled, web registers never appear in any
/// set at covered nodes).
std::vector<std::string> checkRegisterSetInvariants(
    const CallGraph &CG, const std::vector<Cluster> &Clusters,
    const std::vector<Web> &Webs,
    const std::vector<ProcDirectives> &Sets);

} // namespace ipra

#endif // IPRA_CORE_REGSETS_H
