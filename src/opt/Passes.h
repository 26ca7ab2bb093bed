//===- Passes.h - Level-2 (global) optimization passes ---------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "level two (global) optimization" pipeline that the paper's Table 4
/// and Table 5 use as the baseline: constant folding and algebraic
/// simplification, intraprocedural constant/copy propagation, local
/// common-subexpression elimination with store-to-load forwarding, dead
/// code elimination, CFG simplification, and the intraprocedural
/// (function-local) promotion of global variables to registers that §4.1
/// describes as the state of the art the interprocedural scheme improves
/// on: a locally-promoted global is stored back before calls and at the
/// exit point and reloaded at entry and after calls.
///
/// Alias discipline: MiniC pointers can point to any address-taken object
/// in any module, so every pass treats StPtr as potentially writing any
/// global and any escaped slot, and calls as potentially reading/writing
/// any global.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_OPT_PASSES_H
#define IPRA_OPT_PASSES_H

#include "ir/IR.h"

#include <set>
#include <string>
#include <unordered_set>

namespace ipra {

/// Module-level alias facts the local optimizer may consult. All
/// queries are conservative may-information: a true answer means the
/// construct may read or write the named global's memory home; a false
/// answer is a proof that it cannot. Names are the plain in-module
/// symbol names the IR carries. The points-to analysis
/// (analysis/PointsTo.h) implements this; passes see only the
/// interface, and a null pointer means "no facts" — every query is
/// treated as true, reproducing the blanket discipline documented
/// above.
class GlobalAliasFacts {
public:
  virtual ~GlobalAliasFacts() = default;
  /// May a direct call to \p CalleeSym, or anything it transitively
  /// reaches, load or store global \p Global?
  virtual bool callMayTouch(const std::string &CalleeSym,
                            const std::string &Global) const = 0;
  /// May an indirect call made from function \p Func touch \p Global?
  virtual bool indirectCallMayTouch(const std::string &Func,
                                    const std::string &Global) const = 0;
  /// May a pointer dereference (LdPtr/StPtr) in function \p Func touch
  /// \p Global?
  virtual bool derefMayTouch(const std::string &Func,
                             const std::string &Global) const = 0;
};

/// Configuration for the level-2 pipeline.
struct OptOptions {
  /// Run the intraprocedural global-promotion pass (part of level 2).
  bool LocalGlobalPromotion = true;
  /// Globals (plain, module-local names) that phase 2 will promote
  /// interprocedurally; the local pass must leave them alone.
  std::set<std::string> SkipGlobals;
  /// Optional alias facts for this module; null reproduces the
  /// conservative every-call-kills behaviour byte for byte.
  const GlobalAliasFacts *Alias = nullptr;
};

/// The instructions the passes fold others into: Dst = \p V,
/// Dst = \p Src, and goto \p Target.
IRInstr constInstr(unsigned Dst, int32_t V);
IRInstr copyInstr(unsigned Dst, unsigned Src);
IRInstr branchInstr(int Target);

/// Slots whose address the function takes (AddrSlot) anywhere.
std::unordered_set<int> escapedSlots(const IRFunction &F);

/// Folds constants and applies algebraic identities (x+0, x*1, x*2^k,
/// etc.). Returns true if anything changed.
bool simplifyInstructions(IRFunction &F);

/// Intraprocedural constant and copy propagation (iterative dataflow).
bool propagateConstantsAndCopies(IRFunction &F);

/// Block-local CSE over pure expressions, global/slot loads, and
/// store-to-load forwarding.
bool localCSE(IRFunction &F);

/// Removes pure instructions whose results are dead, and no-op copies.
bool eliminateDeadCode(IRFunction &F);

/// Removes block-local stores overwritten before any possible observer.
bool eliminateDeadStores(IRFunction &F);

/// Hoists loop-invariant speculatable instructions into preheaders
/// (one loop per call; the pipeline's rounds reach a fixed point).
bool hoistLoopInvariants(IRFunction &F);

/// Folds constant branches, removes unreachable blocks, merges
/// straight-line block pairs, and threads trivial jumps.
bool simplifyCFG(IRFunction &F);

/// Level-2 intraprocedural register promotion of unaliased scalar
/// globals (load at entry / after kill points, store at exit / before
/// kill points). Skips names in \p Options.SkipGlobals.
bool promoteGlobalsLocally(IRFunction &F, const OptOptions &Options);

/// Exact work counters of the level-2 pipeline's round loops
/// (support/Record.h's Record; record::add sums two).
struct OptStats {
  unsigned long long Rounds = 0;      ///< Rounds started.
  unsigned long long PassRuns = 0;    ///< Passes run (skipped ones excluded).
  unsigned long long PassChanges = 0; ///< Pass runs that changed the IR.

  /// Every field with its key, as `mcc --stats` and the wire show it.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("opt-rounds", S.Rounds);
    V("opt-pass-runs", S.PassRuns);
    V("opt-pass-changes", S.PassChanges);
  }
};

/// The option-independent first stage of the level-2 pipeline: up to
/// eight rounds of every pass above except local global promotion,
/// stopping early at a fixed point. A round skips each pass that
/// changed nothing when it last ran if no pass changed \p F since,
/// which gives the result of running it. Reads nothing but \p F, so
/// its result does not depend on the program database.
OptStats optimizeToFixpoint(IRFunction &F);

/// The second stage: local global promotion (honouring
/// \p Options.SkipGlobals, the only input the program database
/// supplies) and, if it changed anything, up to two cleanup rounds.
OptStats finishOptimization(IRFunction &F, const OptOptions &Options);

/// Runs the full level-2 pipeline: optimizeToFixpoint, then
/// finishOptimization.
OptStats optimizeFunction(IRFunction &F, const OptOptions &Options);

/// Runs optimizeFunction on every function in \p M.
void optimizeModule(IRModule &M, const OptOptions &Options);

} // namespace ipra

#endif // IPRA_OPT_PASSES_H
