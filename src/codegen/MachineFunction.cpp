//===- MachineFunction.cpp - Pre-link machine code container --------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "codegen/MachineFunction.h"

#include <sstream>

using namespace ipra;

MInstr ipra::memAccess(MOp Op, MemClass MC, unsigned Reg, unsigned Base) {
  MInstr I;
  I.Op = Op;
  I.MC = MC;
  I.A = MOperand::makeReg(Reg);
  I.B = MOperand::makeReg(Base);
  I.C = MOperand::makeImm(0);
  return I;
}

MInstr ipra::frameLoad(unsigned Reg, int Slot) {
  MInstr I = memAccess(MOp::LDW, MemClass::StackScalar, Reg, pr32::SP);
  I.C = MOperand::makeFrame(Slot);
  return I;
}

MInstr ipra::frameStore(unsigned Reg, int Slot) {
  MInstr I = memAccess(MOp::STW, MemClass::StackScalar, Reg, pr32::SP);
  I.C = MOperand::makeFrame(Slot);
  return I;
}

MInstr ipra::globalAddr(unsigned Reg, const std::string &QualName) {
  MInstr I;
  I.Op = MOp::ADDRG;
  I.A = MOperand::makeReg(Reg);
  I.B = MOperand::makeSym(QualName);
  return I;
}

std::vector<int> MachineFunction::successors(int Id) const {
  // Lowering guarantees every block ends with B or BV; a conditional
  // transfer is a CB immediately before the trailing B.
  const MBlock &B = Blocks[Id];
  std::vector<int> Out;
  if (B.Instrs.empty())
    return Out;
  const MInstr &Last = B.Instrs.back();
  if (Last.Op == MOp::B) {
    Out.push_back(Last.A.LabelId);
    if (B.Instrs.size() >= 2) {
      const MInstr &Prev = B.Instrs[B.Instrs.size() - 2];
      if (Prev.Op == MOp::CB && Prev.C.LabelId != Last.A.LabelId)
        Out.push_back(Prev.C.LabelId);
    }
  }
  return Out;
}

std::string MachineFunction::toString() const {
  std::ostringstream OS;
  OS << "mfunc " << QualName << " (frame slots: " << FrameSlotWords.size()
     << ")\n";
  for (const MBlock &B : Blocks) {
    OS << ".L" << B.Id << ":\n";
    for (const MInstr &I : B.Instrs)
      OS << "  " << I.toString() << "\n";
  }
  return OS.str();
}
