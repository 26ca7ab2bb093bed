//===- DeadStores.cpp - Block-local dead store elimination ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Removes a store to a global or stack slot that is overwritten by a
/// later store to the same location in the same block with no
/// intervening observer. Observers follow the module's conservative
/// alias discipline (see Passes.h): calls and LdPtr may read any global
/// and any escaped slot; LdG/LdSlot read their own location; block exits
/// publish everything.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include <map>
#include <unordered_set>

using namespace ipra;

namespace {

/// Slots whose address is taken can be read through pointers.
} // namespace

bool ipra::eliminateDeadStores(IRFunction &F) {
  bool Changed = false;
  auto Escaped = escapedSlots(F);

  for (auto &B : F.Blocks) {
    // Pending (unobserved) stores: location -> instruction index.
    std::map<std::string, size_t> PendingGlobal;
    std::map<int, size_t> PendingSlot;
    std::vector<bool> Dead(B->Instrs.size(), false);
    bool BlockChanged = false;

    auto ObserveAllGlobals = [&PendingGlobal] { PendingGlobal.clear(); };
    auto ObserveEscapedSlots = [&PendingSlot, &Escaped] {
      for (auto It = PendingSlot.begin(); It != PendingSlot.end();)
        It = Escaped.count(It->first) ? PendingSlot.erase(It)
                                      : std::next(It);
    };

    for (size_t Idx = 0; Idx < B->Instrs.size(); ++Idx) {
      const IRInstr &I = B->Instrs[Idx];
      switch (I.Op) {
      case IROp::StG: {
        auto It = PendingGlobal.find(I.Sym);
        if (It != PendingGlobal.end()) {
          Dead[It->second] = true; // Overwritten unobserved.
          BlockChanged = true;
        }
        PendingGlobal[I.Sym] = Idx;
        break;
      }
      case IROp::StSlot: {
        auto It = PendingSlot.find(I.Slot);
        if (It != PendingSlot.end()) {
          Dead[It->second] = true;
          BlockChanged = true;
        }
        PendingSlot[I.Slot] = Idx;
        break;
      }
      case IROp::LdG:
        PendingGlobal.erase(I.Sym);
        break;
      case IROp::LdSlot:
        PendingSlot.erase(I.Slot);
        break;
      case IROp::Call:
      case IROp::CallInd:
      case IROp::LdPtr:
      case IROp::StPtr:
        // May read any global or escaped slot.
        ObserveAllGlobals();
        ObserveEscapedSlots();
        break;
      case IROp::AddrSlot:
        // Taking the address publishes the slot from here on; the
        // Escaped set is function-wide, so treat as an observation.
        PendingSlot.erase(I.Slot);
        break;
      default:
        break;
      }
    }

    if (BlockChanged) {
      Changed = true;
      std::vector<IRInstr> Kept;
      Kept.reserve(B->Instrs.size());
      for (size_t Idx = 0; Idx < B->Instrs.size(); ++Idx)
        if (!Dead[Idx])
          Kept.push_back(std::move(B->Instrs[Idx]));
      B->Instrs = std::move(Kept);
    }
  }
  return Changed;
}
