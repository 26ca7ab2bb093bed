//===- SimplifyCFG.cpp - CFG cleanup ---------------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Removes unreachable blocks, threads jumps through empty blocks, folds
/// CondBr whose two targets coincide, and merges single-successor blocks
/// with their single-predecessor successors. Blocks are renumbered
/// densely after changes (branch targets updated).
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/CFG.h"

#include <vector>

using namespace ipra;

namespace {

/// Follows chains of blocks that contain only an unconditional branch.
int threadTarget(const IRFunction &F, int Block) {
  int Cur = Block;
  // Bounded walk to avoid infinite loops on branch cycles.
  for (int Steps = 0; Steps < 64; ++Steps) {
    const IRBlock *B = F.block(Cur);
    if (B->Instrs.size() != 1 || B->Instrs[0].Op != IROp::Br)
      return Cur;
    int Next = B->Instrs[0].Target1;
    if (Next == Cur)
      return Cur;
    Cur = Next;
  }
  return Cur;
}

/// Rebuilds the block list keeping only reachable blocks, renumbering
/// densely and rewriting branch targets.
void compactBlocks(IRFunction &F) {
  CFGInfo CFG(F);
  std::vector<int> NewId(F.Blocks.size(), -1);
  std::vector<std::unique_ptr<IRBlock>> Kept;
  for (auto &B : F.Blocks) {
    if (!CFG.isReachable(B->Id))
      continue;
    NewId[B->Id] = static_cast<int>(Kept.size());
    Kept.push_back(std::move(B));
  }
  for (auto &B : Kept) {
    B->Id = NewId[B->Id];
    if (B->Instrs.empty())
      continue;
    IRInstr &T = B->Instrs.back();
    if (T.Op == IROp::Br || T.Op == IROp::CondBr)
      T.Target1 = NewId[T.Target1];
    if (T.Op == IROp::CondBr)
      T.Target2 = NewId[T.Target2];
  }
  F.Blocks = std::move(Kept);
}

} // namespace

bool ipra::simplifyCFG(IRFunction &F) {
  bool Changed = false;
  bool LocalChange = true;
  while (LocalChange) {
    LocalChange = false;

    // Thread jumps and fold trivially-equal CondBr targets.
    for (auto &B : F.Blocks) {
      if (!B->hasTerminator())
        continue;
      IRInstr &T = B->Instrs.back();
      if (T.Op == IROp::Br) {
        int NewTarget = threadTarget(F, T.Target1);
        if (NewTarget != T.Target1) {
          T.Target1 = NewTarget;
          LocalChange = true;
        }
      } else if (T.Op == IROp::CondBr) {
        int N1 = threadTarget(F, T.Target1);
        int N2 = threadTarget(F, T.Target2);
        if (N1 != T.Target1 || N2 != T.Target2) {
          T.Target1 = N1;
          T.Target2 = N2;
          LocalChange = true;
        }
        if (T.Target1 == T.Target2) {
          T = branchInstr(T.Target1);
          LocalChange = true;
        }
      }
    }

    // Merge B -> S when B ends in Br to S and S has exactly one
    // predecessor (B) and S != B and S is not the entry block.
    {
      CFGInfo CFG(F);
      for (auto &B : F.Blocks) {
        if (!CFG.isReachable(B->Id) || !B->hasTerminator())
          continue;
        IRInstr &T = B->Instrs.back();
        if (T.Op != IROp::Br)
          continue;
        int S = T.Target1;
        if (S == B->Id || S == 0)
          continue;
        if (CFG.predecessors(S).size() != 1)
          continue;
        IRBlock *Succ = F.block(S);
        B->Instrs.pop_back();
        for (IRInstr &I : Succ->Instrs)
          B->Instrs.push_back(std::move(I));
        Succ->Instrs.clear();
        // Leave Succ empty and unreachable; give it a Ret so the
        // verifier stays satisfied until compaction removes it.
        IRInstr Dead;
        Dead.Op = IROp::Ret;
        Succ->Instrs.push_back(std::move(Dead));
        LocalChange = true;
        break; // CFGInfo is stale; restart the scan.
      }
    }

    if (LocalChange)
      Changed = true;
  }

  // Drop unreachable blocks and renumber.
  size_t Before = F.Blocks.size();
  compactBlocks(F);
  if (F.Blocks.size() != Before)
    Changed = true;
  return Changed;
}
