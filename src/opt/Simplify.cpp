//===- Simplify.cpp - Constant folding and algebraic identities -----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include <optional>
#include <unordered_map>

using namespace ipra;

IRInstr ipra::constInstr(unsigned Dst, int32_t V) {
  IRInstr K;
  K.Op = IROp::Const;
  K.HasDst = true;
  K.Dst = Dst;
  K.Imm = V;
  return K;
}

IRInstr ipra::copyInstr(unsigned Dst, unsigned Src) {
  IRInstr K;
  K.Op = IROp::Copy;
  K.HasDst = true;
  K.Dst = Dst;
  K.Srcs = {Src};
  return K;
}

IRInstr ipra::branchInstr(int Target) {
  IRInstr K;
  K.Op = IROp::Br;
  K.Target1 = Target;
  return K;
}

std::unordered_set<int> ipra::escapedSlots(const IRFunction &F) {
  std::unordered_set<int> Escaped;
  for (const auto &B : F.Blocks)
    for (const IRInstr &I : B->Instrs)
      if (I.Op == IROp::AddrSlot)
        Escaped.insert(I.Slot);
  return Escaped;
}

namespace {

std::optional<unsigned> log2Exact(int32_t V) {
  if (V <= 0 || (V & (V - 1)) != 0)
    return std::nullopt;
  unsigned Shift = 0;
  while ((1 << Shift) != V)
    ++Shift;
  return Shift;
}

} // namespace

bool ipra::simplifyInstructions(IRFunction &F) {
  bool Changed = false;
  for (auto &B : F.Blocks) {
    // Block-local map from vreg to known constant, valid only until the
    // vreg is redefined. Used to fold operands defined in this block.
    std::unordered_map<unsigned, int32_t> Consts;
    for (IRInstr &I : B->Instrs) {
      // Fold Bin/Neg/Not with constant operands defined locally.
      if (I.Op == IROp::Bin) {
        auto L = Consts.find(I.Srcs[0]);
        auto R = Consts.find(I.Srcs[1]);
        if (L != Consts.end() && R != Consts.end()) {
          int32_t V = evalBin(I.BK, L->second, R->second);
          I = constInstr(I.Dst, V);
          Changed = true;
        } else if (R != Consts.end()) {
          int32_t C = R->second;
          // x + 0, x - 0, x * 1, x / 1, x | 0, x ^ 0, x << 0, x >> 0.
          bool IdentityToCopy =
              (C == 0 && (I.BK == BinKind::Add || I.BK == BinKind::Sub ||
                          I.BK == BinKind::Or || I.BK == BinKind::Xor ||
                          I.BK == BinKind::Shl || I.BK == BinKind::Shr)) ||
              (C == 1 && (I.BK == BinKind::Mul || I.BK == BinKind::Div));
          if (IdentityToCopy) {
            I = copyInstr(I.Dst, I.Srcs[0]);
            Changed = true;
          } else if (I.BK == BinKind::Mul) {
            if (auto Shift = log2Exact(C)) {
              // Strength-reduce multiply by a power of two. The shift
              // amount needs a vreg; reuse the constant's vreg since it
              // already holds the right value? No - it holds C, not
              // log2(C). Materialize via a separate pass is overkill;
              // only fold when C == 2 using x + x.
              if (*Shift == 1) {
                IRInstr K;
                K.Op = IROp::Bin;
                K.BK = BinKind::Add;
                K.HasDst = true;
                K.Dst = I.Dst;
                K.Srcs = {I.Srcs[0], I.Srcs[0]};
                I = std::move(K);
                Changed = true;
              }
            }
          }
        } else if (L != Consts.end()) {
          int32_t C = L->second;
          if (C == 0 && (I.BK == BinKind::Add || I.BK == BinKind::Or ||
                         I.BK == BinKind::Xor)) {
            I = copyInstr(I.Dst, I.Srcs[1]);
            Changed = true;
          }
        }
        // x - x = 0, x ^ x = 0 (same vreg, no intervening redefinition
        // inside one instruction is trivially true).
        if (I.Op == IROp::Bin && I.Srcs.size() == 2 &&
            I.Srcs[0] == I.Srcs[1] &&
            (I.BK == BinKind::Sub || I.BK == BinKind::Xor)) {
          I = constInstr(I.Dst, 0);
          Changed = true;
        }
      } else if (I.Op == IROp::Neg || I.Op == IROp::Not) {
        auto It = Consts.find(I.Srcs[0]);
        if (It != Consts.end()) {
          int32_t V = It->second;
          I = constInstr(I.Dst, I.Op == IROp::Neg ? evalNeg(V) : ~V);
          Changed = true;
        }
      }

      // Update the local constant map.
      if (I.HasDst) {
        if (I.Op == IROp::Const)
          Consts[I.Dst] = I.Imm;
        else
          Consts.erase(I.Dst);
      }
    }
  }
  return Changed;
}
