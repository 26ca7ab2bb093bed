//===- DCE.cpp - Dead code elimination -------------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Backward liveness over virtual registers; pure instructions whose
/// destinations are dead are deleted, as are self-copies. Calls are kept
/// (their HasDst is dropped when the result is dead).
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/CFG.h"

using namespace ipra;

bool ipra::eliminateDeadCode(IRFunction &F) {
  CFGInfo CFG(F);
  Liveness BlockLive = blockLiveness(F, CFG);

  bool Changed = false;
  for (int B : CFG.rpo()) {
    auto &Instrs = F.block(B)->Instrs;
    DynBitset &Live = BlockLive.Out[B];
    // Survivors move up to fill [Kept, size) from the back.
    size_t Kept = Instrs.size();
    for (size_t Idx = Instrs.size(); Idx-- > 0;) {
      IRInstr &I = Instrs[Idx];
      bool DstDead = I.HasDst && !Live.test(I.Dst);
      if (DstDead && I.isPure()) {
        Changed = true;
        continue; // Drop entirely.
      }
      if (DstDead && I.isCall()) {
        I.HasDst = false; // Keep the call, drop the dead result.
        Changed = true;
      }
      if (I.Op == IROp::Copy && I.HasDst && I.Dst == I.Srcs[0]) {
        Changed = true;
        continue; // Self-copy.
      }
      if (I.HasDst)
        Live.reset(I.Dst);
      for (unsigned Use : I.Srcs)
        Live.set(Use);
      if (--Kept != Idx)
        Instrs[Kept] = std::move(I);
    }
    Instrs.erase(Instrs.begin(), Instrs.begin() + Kept);
  }
  return Changed;
}
