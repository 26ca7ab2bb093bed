//===- PassManager.cpp - Level-2 pipeline driver ---------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"
#include "support/Record.h"

#include <array>
#include <iterator>

using namespace ipra;

namespace {

using Pass = bool (*)(IRFunction &);

/// The passes of one round, in order.
constexpr Pass RoundPasses[] = {
    simplifyInstructions, propagateConstantsAndCopies, localCSE,
    eliminateDeadStores,  hoistLoopInvariants,         eliminateDeadCode,
    simplifyCFG};
constexpr size_t NumRoundPasses = std::size(RoundPasses);

/// Up to \p MaxRounds rounds of the level-2 passes, stopping after the
/// first round that changes nothing. A pass reads nothing but \p F, so
/// one that changed nothing when it last ran would change nothing again
/// until some pass changes \p F: such a pass is skipped, and every
/// round changes exactly what a round of all seven passes would.
OptStats runRounds(IRFunction &F, int MaxRounds) {
  OptStats Stats;
  std::array<bool, NumRoundPasses> Idle{};
  for (int Round = 0; Round < MaxRounds; ++Round) {
    ++Stats.Rounds;
    bool Changed = false;
    for (size_t P = 0; P < NumRoundPasses; ++P) {
      if (Idle[P])
        continue;
      ++Stats.PassRuns;
      if (RoundPasses[P](F)) {
        ++Stats.PassChanges;
        Changed = true;
        Idle.fill(false);
      } else {
        Idle[P] = true;
      }
    }
    if (!Changed)
      break;
  }
  return Stats;
}

} // namespace

OptStats ipra::optimizeToFixpoint(IRFunction &F) { return runRounds(F, 8); }

OptStats ipra::finishOptimization(IRFunction &F, const OptOptions &Options) {
  OptStats Stats;
  if (Options.LocalGlobalPromotion && promoteGlobalsLocally(F, Options))
    Stats = runRounds(F, 2); // Clean up the copies the promotion introduced.
  return Stats;
}

OptStats ipra::optimizeFunction(IRFunction &F, const OptOptions &Options) {
  OptStats Stats = optimizeToFixpoint(F);
  record::add(Stats, finishOptimization(F, Options));
  return Stats;
}

void ipra::optimizeModule(IRModule &M, const OptOptions &Options) {
  for (auto &F : M.Functions)
    optimizeFunction(*F, Options);
}
