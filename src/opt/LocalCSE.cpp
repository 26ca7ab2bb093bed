//===- LocalCSE.cpp - Block-local common subexpression elimination --------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Classic local value numbering over one basic block: pure arithmetic,
/// address formation, and memory loads are tabled and reused; stores
/// forward their value to subsequent loads of the same location. Kill
/// discipline (conservative, see Passes.h): calls and StPtr invalidate
/// all global loads and all escaped-slot loads; StG/StSlot invalidate the
/// specific location; StElem invalidates element loads of the same array.
/// Redefinition of a vreg invalidates every table entry that uses it as
/// an operand or holds it as the reusable value.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include <algorithm>
#include <map>
#include <tuple>

using namespace ipra;

namespace {

/// Key identifying a reusable expression within a block.
struct ExprKey {
  IROp Op;
  BinKind BK;
  std::vector<unsigned> Srcs;
  std::string Sym;
  int Slot;

  bool operator<(const ExprKey &RHS) const {
    return std::tie(Op, BK, Srcs, Sym, Slot) <
           std::tie(RHS.Op, RHS.BK, RHS.Srcs, RHS.Sym, RHS.Slot);
  }
};

/// Slots whose address is ever taken can be written through pointers.
bool cseEligible(const IRInstr &I) {
  if (!I.HasDst)
    return false;
  switch (I.Op) {
  case IROp::Bin:
  case IROp::Neg:
  case IROp::Not:
  case IROp::AddrG:
  case IROp::AddrSlot:
  case IROp::LdG:
  case IROp::LdSlot:
  case IROp::LdElem:
    return true;
  default:
    return false;
  }
}

} // namespace

bool ipra::localCSE(IRFunction &F) {
  bool Changed = false;
  auto Escaped = escapedSlots(F);

  for (auto &B : F.Blocks) {
    std::map<ExprKey, unsigned> Table; // Expression -> vreg holding it.

    auto KillMatching = [&](auto Pred) {
      for (auto It = Table.begin(); It != Table.end();) {
        if (Pred(It->first, It->second))
          It = Table.erase(It);
        else
          ++It;
      }
    };

    auto IsAliasedLoad = [&](const ExprKey &K) {
      if (K.Op == IROp::LdG || (K.Op == IROp::LdElem && !K.Sym.empty()))
        return true;
      if ((K.Op == IROp::LdSlot ||
           (K.Op == IROp::LdElem && K.Sym.empty())) &&
          Escaped.count(K.Slot))
        return true;
      return false;
    };

    for (IRInstr &I : B->Instrs) {
      // 1. Try to reuse an existing value.
      if (cseEligible(I)) {
        ExprKey Key{I.Op, I.BK, I.Srcs, I.Sym, I.Slot};
        auto It = Table.find(Key);
        if (It != Table.end() && It->second != I.Dst) {
          I = copyInstr(I.Dst, It->second);
          Changed = true;
        }
      }

      // 2. Kills from memory effects.
      switch (I.Op) {
      case IROp::Call:
      case IROp::CallInd:
      case IROp::StPtr:
        KillMatching([&](const ExprKey &K, unsigned) {
          return IsAliasedLoad(K);
        });
        break;
      case IROp::StG:
        KillMatching([&](const ExprKey &K, unsigned) {
          return K.Op == IROp::LdG && K.Sym == I.Sym;
        });
        break;
      case IROp::StSlot:
        KillMatching([&](const ExprKey &K, unsigned) {
          return K.Op == IROp::LdSlot && K.Slot == I.Slot;
        });
        break;
      case IROp::StElem:
        KillMatching([&](const ExprKey &K, unsigned) {
          return K.Op == IROp::LdElem && K.Sym == I.Sym &&
                 K.Slot == I.Slot;
        });
        break;
      default:
        break;
      }

      // 3. Kills from register redefinition: entries that use the new
      // def as an operand or hold it as their value are stale.
      if (I.HasDst) {
        unsigned Dst = I.Dst;
        KillMatching([&](const ExprKey &K, unsigned Value) {
          if (Value == Dst)
            return true;
          return std::find(K.Srcs.begin(), K.Srcs.end(), Dst) !=
                 K.Srcs.end();
        });
      }

      // 4. Record the new fact (after all kills).
      if (cseEligible(I)) {
        bool SelfReferential =
            std::find(I.Srcs.begin(), I.Srcs.end(), I.Dst) != I.Srcs.end();
        if (!SelfReferential)
          Table.emplace(ExprKey{I.Op, I.BK, I.Srcs, I.Sym, I.Slot}, I.Dst);
      } else if (I.Op == IROp::StG) {
        // Store-to-load forwarding.
        Table[ExprKey{IROp::LdG, BinKind::Add, {}, I.Sym, -1}] = I.Srcs[0];
      } else if (I.Op == IROp::StSlot) {
        Table[ExprKey{IROp::LdSlot, BinKind::Add, {}, "", I.Slot}] =
            I.Srcs[0];
      }
    }
  }
  return Changed;
}
