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

#include <algorithm>

using namespace ipra;

bool ipra::eliminateDeadCode(IRFunction &F) {
  CFGInfo CFG(F);
  Liveness BlockLive = blockLiveness(F, CFG);

  bool Changed = false;
  for (int B : CFG.rpo()) {
    auto &Instrs = F.block(B)->Instrs;
    DynBitset &Live = BlockLive.Out[B];
    std::vector<IRInstr> Kept;
    Kept.reserve(Instrs.size());
    for (auto II = Instrs.rbegin(); II != Instrs.rend(); ++II) {
      IRInstr &I = *II;
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
      Kept.push_back(std::move(I));
    }
    std::reverse(Kept.begin(), Kept.end());
    Instrs = std::move(Kept);
  }
  return Changed;
}
