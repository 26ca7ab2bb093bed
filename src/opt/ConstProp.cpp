//===- ConstProp.cpp - Global constant and copy propagation ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Iterative forward dataflow over the (non-SSA) virtual registers. Each
/// program point keeps a flat vector of facts sorted by vreg: a vreg is a
/// known 32-bit constant or a copy of another vreg, and a vreg without a
/// fact is unknown. The meet at block entry is fact intersection, one
/// merge of two sorted vectors. After the fixpoint, uses are rewritten:
/// constant operands of Copy feed Const rewrites, copy chains are
/// collapsed, and CondBr on a known constant becomes an unconditional
/// branch.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/CFG.h"

#include <algorithm>

using namespace ipra;

namespace {

/// One known fact: \p Reg holds the constant \p Const or, if \p CopyOf,
/// the value of register \p Src.
struct Fact {
  unsigned Reg = 0;
  bool CopyOf = false;
  int32_t Const = 0;
  unsigned Src = 0;

  bool operator==(const Fact &RHS) const = default;
};

/// The facts at one program point, sorted by register; absence means
/// bottom (unknown/varying).
using State = std::vector<Fact>;

/// The first fact in \p S for a register at or above \p Reg.
template <typename StateT> auto lowerBound(StateT &S, unsigned Reg) {
  return std::lower_bound(
      S.begin(), S.end(), Reg,
      [](const Fact &F, unsigned R) { return F.Reg < R; });
}

/// The fact for \p Reg, or null.
const Fact *lookup(const State &S, unsigned Reg) {
  auto It = lowerBound(S, Reg);
  return It != S.end() && It->Reg == Reg ? &*It : nullptr;
}

/// The constant \p Reg holds, or null.
const int32_t *constantOf(const State &S, unsigned Reg) {
  const Fact *F = lookup(S, Reg);
  return F && !F->CopyOf ? &F->Const : nullptr;
}

/// Applies one instruction to the state. Only a register some Copy
/// reads (\p CopySource) can be the source of a CopyOf fact, and
/// rewriting a use to a copy's source keeps that true.
void transfer(State &S, const IRInstr &I,
              const std::vector<char> &CopySource) {
  if (!I.HasDst)
    return;
  // Remove the facts a (re)definition of Dst invalidates: its own and
  // any copy-of-Dst facts.
  if (auto It = lowerBound(S, I.Dst); It != S.end() && It->Reg == I.Dst)
    S.erase(It);
  if (CopySource[I.Dst])
    std::erase_if(S, [&I](const Fact &F) {
      return F.CopyOf && F.Src == I.Dst;
    });
  Fact New{I.Dst, false, I.Imm, 0};
  if (I.Op == IROp::Copy && I.Srcs[0] != I.Dst) {
    // Collapse through the source's current fact when possible.
    const Fact *Src = lookup(S, I.Srcs[0]);
    New = Src ? *Src : Fact{0, true, 0, I.Srcs[0]};
    New.Reg = I.Dst;
  } else if (I.Op != IROp::Const) {
    return;
  }
  S.insert(lowerBound(S, I.Dst), New);
}

/// Meet: keep only facts present and equal in both.
void meetInto(State &Dst, const State &Src) {
  auto Out = Dst.begin();
  auto SrcIt = Src.begin();
  for (const Fact &F : Dst) {
    while (SrcIt != Src.end() && SrcIt->Reg < F.Reg)
      ++SrcIt;
    if (SrcIt != Src.end() && *SrcIt == F)
      *Out++ = F;
  }
  Dst.erase(Out, Dst.end());
}

} // namespace

bool ipra::propagateConstantsAndCopies(IRFunction &F) {
  CFGInfo CFG(F);
  std::vector<char> CopySource(F.NumVRegs, 0);
  for (const auto &B : F.Blocks)
    for (const IRInstr &I : B->Instrs)
      if (I.Op == IROp::Copy)
        CopySource[I.Srcs[0]] = 1;
  size_t N = F.Blocks.size();
  std::vector<State> In(N), Out(N);
  std::vector<bool> Visited(N, false);

  // Fixpoint over reachable blocks in RPO. A visited block whose visited
  // predecessors' Out did not change since its last visit would come out
  // as it is, so it is skipped (Seen and OutChanged order the events).
  State NewIn, NewOut;
  std::vector<unsigned> Seen(N, 0), OutChanged(N, 0);
  unsigned Event = 0;
  bool IterChanged = true;
  int Rounds = 0;
  while (IterChanged && Rounds++ < 50) {
    IterChanged = false;
    for (int B : CFG.rpo()) {
      const std::vector<int> &Preds = CFG.predecessors(B);
      if (Visited[B] && std::none_of(Preds.begin(), Preds.end(), [&](int P) {
            return Visited[P] && OutChanged[P] > Seen[B];
          }))
        continue;
      Seen[B] = ++Event;
      NewIn.clear();
      bool First = true;
      for (int P : Preds) {
        if (!Visited[P])
          continue; // Optimistically ignore unprocessed back edges.
        if (First) {
          NewIn = Out[P];
          First = false;
        } else {
          meetInto(NewIn, Out[P]);
        }
      }
      NewOut = NewIn;
      for (const IRInstr &I : F.block(B)->Instrs)
        transfer(NewOut, I, CopySource);
      if (!Visited[B] || NewOut != Out[B])
        OutChanged[B] = ++Event;
      if (!Visited[B] || NewIn != In[B] || NewOut != Out[B]) {
        In[B].swap(NewIn);
        Out[B].swap(NewOut);
        Visited[B] = true;
        IterChanged = true;
      }
    }
  }

  // Rewrite uses.
  bool Changed = false;
  for (int B : CFG.rpo()) {
    State S = In[B];
    for (IRInstr &I : F.block(B)->Instrs) {
      // Replace uses that are copies of other regs; turn instructions
      // whose value is a known constant into Const.
      for (unsigned &Use : I.Srcs) {
        const Fact *Known = lookup(S, Use);
        if (Known && Known->CopyOf && Known->Src != Use) {
          Use = Known->Src;
          Changed = true;
        }
      }
      if (I.Op == IROp::Copy) {
        if (const int32_t *C = constantOf(S, I.Srcs[0])) {
          I = constInstr(I.Dst, *C);
          Changed = true;
        }
      } else if (I.Op == IROp::Bin || I.Op == IROp::Neg ||
                 I.Op == IROp::Not) {
        // Fold fully-constant operands here too (the block-local
        // simplifier misses facts that flow across blocks).
        const int32_t *L = constantOf(S, I.Srcs[0]);
        const int32_t *R =
            I.Op == IROp::Bin ? constantOf(S, I.Srcs[1]) : L;
        if (L && R) {
          I = constInstr(I.Dst, I.Op == IROp::Bin   ? evalBin(I.BK, *L, *R)
                                : I.Op == IROp::Neg ? evalNeg(*L)
                                                    : ~*L);
          Changed = true;
        }
      } else if (I.Op == IROp::CondBr) {
        if (const int32_t *C = constantOf(S, I.Srcs[0])) {
          I = branchInstr(*C != 0 ? I.Target1 : I.Target2);
          Changed = true;
        }
      }
      transfer(S, I, CopySource);
    }
  }
  return Changed;
}
