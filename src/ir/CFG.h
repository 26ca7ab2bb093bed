//===- CFG.h - Control-flow graph analyses ---------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CFG utilities over IRFunction: predecessors, reverse post-order,
/// dominator computation, and loop-nesting depth. Loop depth drives the
/// compiler first phase's frequency heuristics (a block at nesting depth
/// d is weighted 10^d), which the paper's prototype used in place of
/// profile data.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_IR_CFG_H
#define IPRA_IR_CFG_H

#include "ir/IR.h"
#include "support/Graph.h"
#include "support/Liveness.h"

#include <algorithm>
#include <vector>

namespace ipra {

/// Analysis bundle for one function's CFG. Build once; invalidated by
/// any CFG mutation. Not safe to share across threads (the dominators
/// and loops are filled in on first use).
class CFGInfo {
public:
  explicit CFGInfo(const IRFunction &F);

  const std::vector<int> &predecessors(int Block) const {
    return Preds[Block];
  }
  const std::vector<int> &successors(int Block) const {
    return Succs[Block];
  }

  /// Blocks reachable from entry, in reverse post-order.
  const std::vector<int> &rpo() const { return Order.Rpo; }

  bool isReachable(int Block) const { return Order.reached(Block); }

  /// Immediate dominator of \p Block (-1 for the entry block and for
  /// unreachable blocks, which support/Graph.h marks -2).
  int idom(int Block) const {
    computeLoops();
    return std::max(IDom[Block], -1);
  }

  /// Returns true if \p A dominates \p B (reflexive).
  bool dominates(int A, int B) const;

  /// Loop-nesting depth of \p Block (0 = not in any loop).
  int loopDepth(int Block) const {
    computeLoops();
    return LoopDepth[Block];
  }

  /// A natural loop: the header plus every block of every back edge
  /// targeting it (back edges with the same header merge into one loop).
  struct Loop {
    int Header = -1;
    std::vector<int> Blocks; ///< Includes the header.
  };
  const std::vector<Loop> &loops() const {
    computeLoops();
    return Loops;
  }

  /// Frequency weight used by the first-phase heuristics: 10^depth,
  /// capped at 10^4.
  long long blockFrequency(int Block) const;

private:
  /// Dominators and natural loops, computed on first use: most passes
  /// need only the edges and the order.
  void computeLoops() const;
  void computeLoopDepths() const;

  std::vector<std::vector<int>> Preds, Succs;
  DfsOrder Order; ///< From the entry block.
  mutable bool HaveLoops = false;
  mutable std::vector<int> IDom; ///< -1 entry, -2 unreachable.
  mutable std::vector<int> LoopDepth;
  mutable std::vector<Loop> Loops;
};

/// Virtual registers live at the entry and exit of every block of \p F
/// (support/Liveness over \p CFG's successor lists). Unreachable blocks
/// get their own answer but never feed a reachable one.
Liveness blockLiveness(const IRFunction &F, const CFGInfo &CFG);

} // namespace ipra

#endif // IPRA_IR_CFG_H
