//===- LICM.cpp - Loop-invariant code motion -------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Hoists loop-invariant speculatable instructions (constants, address
/// formation, arithmetic over invariant operands) into a preheader.
/// Because the IR is not SSA, hoisting a definition of d is legal only
/// under strict conditions:
///
///  - the instruction is speculatable (pure and memory-free);
///  - no operand has a definition inside the loop;
///  - this is the ONLY definition of d inside the loop;
///  - every use of d anywhere in the function is dominated by the
///    defining block (so no path observes a pre-hoist value of d);
///  - d is not live into the loop header.
///
/// Preheaders are materialized on demand: a fresh block takes over every
/// non-back-edge predecessor of the header. Loop headers that are the
/// function entry are skipped (the entry block's identity is fixed).
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/CFG.h"

#include <algorithm>
#include <optional>
#include <tuple>

using namespace ipra;

namespace {

bool isSpeculatable(const IRInstr &I) {
  switch (I.Op) {
  case IROp::Const:
  case IROp::Copy:
  case IROp::Bin:
  case IROp::Neg:
  case IROp::Not:
  case IROp::AddrG:
  case IROp::AddrSlot:
    return true;
  default:
    return false;
  }
}

/// Per-vreg definition sites: (block, instruction index) pairs.
struct DefUseInfo {
  std::vector<std::vector<std::pair<int, int>>> Defs;
  std::vector<std::vector<std::pair<int, int>>> Uses;

  explicit DefUseInfo(const IRFunction &F) {
    Defs.resize(F.NumVRegs);
    Uses.resize(F.NumVRegs);
    for (const auto &B : F.Blocks) {
      for (size_t Idx = 0; Idx < B->Instrs.size(); ++Idx) {
        const IRInstr &I = B->Instrs[Idx];
        if (I.HasDst)
          Defs[I.Dst].push_back({B->Id, static_cast<int>(Idx)});
        for (unsigned Src : I.Srcs)
          Uses[Src].push_back({B->Id, static_cast<int>(Idx)});
      }
    }
  }
};

} // namespace

bool ipra::hoistLoopInvariants(IRFunction &F) {
  CFGInfo CFG(F);
  if (CFG.loops().empty())
    return false;

  DefUseInfo DU(F);
  std::optional<Liveness> Live; // Solved when a candidate first asks.

  bool Changed = false;
  // Hoist from outermost loops first? Processing any loop is correct
  // under the conditions; one pass per optimizer round suffices (the
  // round loop reruns to a fixed point).
  for (const CFGInfo::Loop &L : CFG.loops()) {
    if (L.Header == 0)
      continue; // Entry-block headers keep their identity.
    std::vector<char> InLoop(F.Blocks.size(), 0);
    for (int B : L.Blocks)
      InLoop[B] = 1;

    // Collect hoistable instructions.
    struct Candidate {
      int Block;
      int Index;
    };
    std::vector<Candidate> Hoist;
    for (int B : L.Blocks) {
      const auto &Instrs = F.block(B)->Instrs;
      for (size_t Idx = 0; Idx < Instrs.size(); ++Idx) {
        const IRInstr &I = Instrs[Idx];
        if (!isSpeculatable(I) || !I.HasDst)
          continue;
        // Operands defined only outside the loop.
        bool OperandsInvariant = true;
        for (unsigned Src : I.Srcs)
          for (auto [DB, DI] : DU.Defs[Src])
            if (InLoop[DB]) {
              OperandsInvariant = false;
              break;
            }
        if (!OperandsInvariant)
          continue;
        // Sole in-loop definition of its destination.
        int LoopDefs = 0;
        for (auto [DB, DI] : DU.Defs[I.Dst])
          if (InLoop[DB])
            ++LoopDefs;
        if (LoopDefs != 1)
          continue;
        // Every use anywhere is dominated by this definition.
        bool DominatesUses = true;
        for (auto [UB, UI] : DU.Uses[I.Dst]) {
          if (UB == B) {
            if (UI <= static_cast<int>(Idx)) {
              DominatesUses = false;
              break;
            }
          } else if (!CFG.dominates(B, UB)) {
            DominatesUses = false;
            break;
          }
        }
        if (!DominatesUses)
          continue;
        // Not live into the header (no loop-carried pre-def reader).
        if (!Live)
          Live = blockLiveness(F, CFG);
        if (Live->In[L.Header].test(I.Dst))
          continue;
        Hoist.push_back({B, static_cast<int>(Idx)});
      }
    }
    if (Hoist.empty())
      continue;

    // Build the preheader: it inherits every non-back-edge predecessor
    // of the header.
    IRBlock *Preheader = F.newBlock();
    for (int P : CFG.predecessors(L.Header)) {
      if (InLoop[P])
        continue; // Back edge stays on the header.
      IRInstr &T = F.block(P)->Instrs.back();
      if ((T.Op == IROp::Br || T.Op == IROp::CondBr) &&
          T.Target1 == L.Header)
        T.Target1 = Preheader->Id;
      if (T.Op == IROp::CondBr && T.Target2 == L.Header)
        T.Target2 = Preheader->Id;
    }

    // Move the candidates (preserving their original relative order, so
    // any dependencies among hoisted instructions stay satisfied).
    std::sort(Hoist.begin(), Hoist.end(),
              [](const Candidate &A, const Candidate &B) {
                return std::tie(A.Block, A.Index) <
                       std::tie(B.Block, B.Index);
              });
    // Removing by index from the back keeps earlier indices stable.
    for (const Candidate &C : Hoist)
      Preheader->Instrs.push_back(F.block(C.Block)->Instrs[C.Index]);
    for (auto It = Hoist.rbegin(); It != Hoist.rend(); ++It)
      F.block(It->Block)
          ->Instrs.erase(F.block(It->Block)->Instrs.begin() + It->Index);

    Preheader->Instrs.push_back(branchInstr(L.Header));
    Changed = true;

    // CFG and def/use info are stale after mutation: handle one loop
    // per invocation; the pass-manager round loop will call again.
    break;
  }
  return Changed;
}
