//===- PassManager.cpp - Level-2 pipeline driver ---------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include <cassert>

using namespace ipra;

namespace {

/// One round of the level-2 pipeline; true if any pass changed \p F.
/// A round reads nothing but \p F.
bool runRound(IRFunction &F) {
  bool Changed = false;
  Changed |= simplifyInstructions(F);
  Changed |= propagateConstantsAndCopies(F);
  Changed |= localCSE(F);
  Changed |= eliminateDeadStores(F);
  Changed |= hoistLoopInvariants(F);
  Changed |= eliminateDeadCode(F);
  Changed |= simplifyCFG(F);
  return Changed;
}

} // namespace

void ipra::optimizeToFixpoint(IRFunction &F) {
  for (int I = 0; I < 8; ++I)
    if (!runRound(F))
      break;
}

void ipra::finishOptimization(IRFunction &F, const OptOptions &Options) {
  if (Options.LocalGlobalPromotion && promoteGlobalsLocally(F, Options)) {
    // Clean up the copies the promotion introduced.
    for (int I = 0; I < 2; ++I)
      if (!runRound(F))
        break;
  }
}

void ipra::optimizeFunction(IRFunction &F, const OptOptions &Options) {
  optimizeToFixpoint(F);
  finishOptimization(F, Options);
}

void ipra::optimizeModule(IRModule &M, const OptOptions &Options) {
  for (auto &F : M.Functions)
    optimizeFunction(*F, Options);
}
