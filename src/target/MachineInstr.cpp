//===- MachineInstr.cpp - PR32 instruction utilities ----------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "target/MachineInstr.h"

#include <sstream>

using namespace ipra;

unsigned ipra::cycleCost(MOp Op) {
  switch (Op) {
  case MOp::MUL:
    return 4;
  case MOp::DIV:
  case MOp::REM:
    return 16;
  default:
    return 1;
  }
}

namespace {

/// Does operand A name a register this instruction writes?
bool definesA(MOp Op) {
  switch (Op) {
  case MOp::LDI:
  case MOp::ADDRG:
  case MOp::LDW:
  case MOp::MOV:
  case MOp::ADD:
  case MOp::SUB:
  case MOp::MUL:
  case MOp::DIV:
  case MOp::REM:
  case MOp::AND:
  case MOp::OR:
  case MOp::XOR:
  case MOp::SHL:
  case MOp::SHR:
  case MOp::NEG:
  case MOp::NOT:
  case MOp::CMP:
    return true;
  default:
    return false;
  }
}

/// Does operand A name a register this instruction reads? (For B and
/// BL, A is a label/symbol, never a register read.)
bool readsA(MOp Op) {
  switch (Op) {
  case MOp::STW:
  case MOp::CB:
  case MOp::BLR:
  case MOp::BV:
  case MOp::PRINT:
  case MOp::PRINTC:
    return true;
  default:
    return false;
  }
}

void appendIfReg(const MOperand &Op, std::vector<unsigned> &Out) {
  if (Op.isReg())
    Out.push_back(Op.RegNo);
}

} // namespace

void MInstr::appendUses(std::vector<unsigned> &Out) const {
  if (readsA(Op))
    appendIfReg(A, Out);
  if (Op == MOp::HALT) {
    Out.push_back(pr32::RV); // Exit status.
    return;
  }
  if (Op == MOp::B)
    return; // A is a label.
  appendIfReg(B, Out);
  appendIfReg(C, Out);
  if (isCall())
    for (unsigned Arg = 0; Arg < NumArgs; ++Arg)
      Out.push_back(pr32::FirstArgReg + Arg);
}

void MInstr::appendDefs(std::vector<unsigned> &Out) const {
  if (definesA(Op))
    appendIfReg(A, Out);
  if (isCall()) {
    Out.push_back(pr32::RP);
    if (HasResult)
      Out.push_back(pr32::RV);
  }
}

bool MInstr::readsOperand(unsigned Reg) const {
  auto Is = [Reg](const MOperand &Op) {
    return Op.isReg() && Op.RegNo == Reg;
  };
  return (readsA(Op) && Is(A)) || (Op != MOp::B && (Is(B) || Is(C)));
}

bool MInstr::writesOperand(unsigned Reg) const {
  return definesA(Op) && A.isReg() && A.RegNo == Reg;
}

void MInstr::replaceRegUses(unsigned From, unsigned To) {
  auto Replace = [&](MOperand &Op) {
    if (Op.isReg() && Op.RegNo == From)
      Op.RegNo = To;
  };
  if (readsA(Op))
    Replace(A);
  if (Op != MOp::B) {
    Replace(B);
    Replace(C);
  }
}

void MInstr::replaceRegDefs(unsigned From, unsigned To) {
  if (writesOperand(From))
    A.RegNo = To;
}

namespace {

std::string operandString(const MOperand &Op) {
  switch (Op.Kind) {
  case MOperand::None:
    return "";
  case MOperand::Reg:
    return pr32::regName(Op.RegNo);
  case MOperand::Imm:
    return std::to_string(Op.ImmVal);
  case MOperand::Sym:
    return "@" + Op.SymName;
  case MOperand::Label:
    return ".L" + std::to_string(Op.LabelId);
  case MOperand::Frame:
    return "fi" + std::to_string(Op.FrameIdx);
  }
  return "";
}

} // namespace

std::string MInstr::toString() const {
  std::ostringstream OS;
  OS << mopName(Op);
  if (Op == MOp::CMP || Op == MOp::CB)
    OS << "." << condName(CC);

  if (Op == MOp::LDW || Op == MOp::STW) {
    // ldw r5, [r30+2]
    OS << " " << operandString(A) << ", [" << operandString(B);
    if (C.isImm())
      OS << (C.ImmVal >= 0 ? "+" : "") << C.ImmVal;
    else if (C.Kind != MOperand::None)
      OS << "+" << operandString(C);
    OS << "]";
    return OS.str();
  }

  bool First = true;
  for (const MOperand *Operand : {&A, &B, &C}) {
    if (Operand->Kind == MOperand::None)
      continue;
    OS << (First ? " " : ", ") << operandString(*Operand);
    First = false;
  }
  if (isCall()) {
    OS << " args=" << unsigned(NumArgs);
    if (HasResult)
      OS << " ret";
  }
  return OS.str();
}
