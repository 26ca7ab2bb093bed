//===- Liveness.h - Backward may-liveness solver ---------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's one liveness fixpoint, shared by DCE and LICM (through
/// blockLiveness in ir/CFG.h), the register allocator and the link-time
/// peephole.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_LIVENESS_H
#define IPRA_SUPPORT_LIVENESS_H

#include "support/DynBitset.h"

#include <vector>

namespace ipra {

/// Registers live at the entry (In) and exit (Out) of every node.
struct Liveness {
  std::vector<DynBitset> In, Out;
};

/// Nodes 0..N-1 (blocks or instructions) with successor lists and
/// Gen/Kill over registers 0..Bits-1.
struct LivenessProblem {
  std::vector<std::vector<int>> Succs;
  std::vector<DynBitset> Gen, Kill;

  LivenessProblem(size_t Nodes, size_t Bits)
      : Succs(Nodes), Gen(Nodes, DynBitset(Bits)),
        Kill(Nodes, DynBitset(Bits)) {}

  /// Feed a node's instructions last to first, defs before uses.
  void def(size_t Node, size_t Reg) {
    Gen[Node].reset(Reg);
    Kill[Node].set(Reg);
  }
  void use(size_t Node, size_t Reg) { Gen[Node].set(Reg); }

  /// The least solution of Out[n] = union of In[s] over successors s,
  /// In[n] = Gen[n] | (Out[n] - Kill[n]); it does not depend on visit
  /// order. Computed by a worklist over predecessors.
  Liveness solve() const;
};

} // namespace ipra

#endif // IPRA_SUPPORT_LIVENESS_H
