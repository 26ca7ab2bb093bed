//===- ReferenceAnalyzer.h - Seed-style analyzer oracle --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original (pre-scaling) analyzer algorithms, retained verbatim:
/// P_REF/C_REF by iterate-to-fixpoint instead of the SCC-condensation
/// sweeps, and web discovery on std::set<int> node sets instead of
/// bitsets, always serial. They serve two purposes:
///
///  - an equivalence oracle: property tests check that the optimized
///    analyzer produces the identical web set, entry nodes, register
///    assignments and cluster partition on randomized call graphs;
///  - a performance baseline: bench_analyzer_scale measures the
///    optimized analyzer's speedup against these implementations.
///
/// Nothing in the product pipeline calls into this namespace.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_REFERENCEANALYZER_H
#define IPRA_CORE_REFERENCEANALYZER_H

#include "core/Clusters.h"
#include "core/Webs.h"

namespace ipra {
namespace reference {

/// P_REF/C_REF computed by the seed's iterate-to-fixpoint loops over
/// (reverse) RPO order. L_REF comes from the production RefSets (its
/// construction from summaries is shared, not part of the rewrite).
class FixpointRefSets {
public:
  FixpointRefSets(const CallGraph &CG, const RefSets &RS);

  const DynBitset &pref(int Node) const { return PRef[Node]; }
  const DynBitset &cref(int Node) const { return CRef[Node]; }

private:
  std::vector<DynBitset> PRef, CRef;
};

/// The seed's std::set-based web discovery (Figure 2), including the
/// §6.2/§7.4/§7.2 filters, §7.6.1 splitting and re-merging. Produces
/// the same Web records as ipra::buildWebs.
std::vector<Web> buildWebs(const CallGraph &CG, const RefSets &RS,
                           const AnalyzerOptions &Options = {});

/// The seed's std::set-based cluster identification (§4.2).
std::vector<Cluster> identifyClusters(const CallGraph &CG,
                                      bool AssumeClosedWorld = true);

} // namespace reference
} // namespace ipra

#endif // IPRA_CORE_REFERENCEANALYZER_H
