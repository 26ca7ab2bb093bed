//===- MachineFunction.h - Pre-link machine code container -----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine code for one function between instruction selection and
/// object emission: basic blocks of MInstr over virtual and physical
/// registers, plus the frame-slot table that the frame finalizer turns
/// into SP offsets.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CODEGEN_MACHINEFUNCTION_H
#define IPRA_CODEGEN_MACHINEFUNCTION_H

#include "target/MachineInstr.h"

#include <string>
#include <vector>

namespace ipra {

/// One machine basic block; Id doubles as the branch label.
struct MBlock {
  int Id = -1;
  std::vector<MInstr> Instrs;
};

/// `ldw Reg, [sp + Slot]` and `stw Reg, [sp + Slot]` on frame slot
/// \p Slot: the stack-scalar accesses of local slots, spill code and
/// register saves.
MInstr frameLoad(unsigned Reg, int Slot);
MInstr frameStore(unsigned Reg, int Slot);

/// `Op Reg, [Base + 0]`: the LDW or STW (\p Op) of a \p MC access whose
/// address is in \p Base.
MInstr memAccess(MOp Op, MemClass MC, unsigned Reg, unsigned Base);

/// `addrg Reg, @QualName`.
MInstr globalAddr(unsigned Reg, const std::string &QualName);

/// Machine code for one function plus frame bookkeeping.
class MachineFunction {
public:
  std::string Name;
  std::string QualName;
  std::vector<MBlock> Blocks;
  unsigned NextVReg = VirtRegBase;
  std::vector<int> FrameSlotWords; ///< Size of each frame slot.
  bool MakesCalls = false;

  unsigned newVReg() { return NextVReg++; }

  int newFrameSlot(int Words) {
    FrameSlotWords.push_back(Words);
    return static_cast<int>(FrameSlotWords.size()) - 1;
  }

  MBlock &block(int Id) { return Blocks[Id]; }

  /// Successor labels of a block, taken from its control transfers.
  std::vector<int> successors(int Id) const;

  std::string toString() const;
};

} // namespace ipra

#endif // IPRA_CODEGEN_MACHINEFUNCTION_H
