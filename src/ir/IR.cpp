//===- IR.cpp - Three-address IR printing and helpers ---------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <sstream>

using namespace ipra;

static std::string vr(unsigned Reg) { return "%" + std::to_string(Reg); }

std::string IRInstr::toString() const {
  std::ostringstream OS;
  auto Dest = [&]() -> std::ostringstream & {
    if (HasDst)
      OS << vr(Dst) << " = ";
    return OS;
  };
  switch (Op) {
  case IROp::Const:
    Dest() << "const " << Imm;
    break;
  case IROp::Copy:
    Dest() << "copy " << vr(Srcs[0]);
    break;
  case IROp::Bin:
    Dest() << BinKindNames[static_cast<int>(BK)] << " " << vr(Srcs[0])
           << ", " << vr(Srcs[1]);
    break;
  case IROp::Neg:
    Dest() << "neg " << vr(Srcs[0]);
    break;
  case IROp::Not:
    Dest() << "not " << vr(Srcs[0]);
    break;
  case IROp::LdG:
    Dest() << "ldg @" << Sym;
    break;
  case IROp::StG:
    OS << "stg @" << Sym << ", " << vr(Srcs[0]);
    break;
  case IROp::LdSlot:
    Dest() << "ldslot $" << Slot;
    break;
  case IROp::StSlot:
    OS << "stslot $" << Slot << ", " << vr(Srcs[0]);
    break;
  case IROp::LdElem:
    Dest() << "ldelem ";
    if (!Sym.empty())
      OS << "@" << Sym;
    else
      OS << "$" << Slot;
    OS << "[" << vr(Srcs[0]) << "]";
    break;
  case IROp::StElem:
    OS << "stelem ";
    if (!Sym.empty())
      OS << "@" << Sym;
    else
      OS << "$" << Slot;
    OS << "[" << vr(Srcs[0]) << "], " << vr(Srcs[1]);
    break;
  case IROp::LdPtr:
    Dest() << "ldptr *" << vr(Srcs[0]);
    break;
  case IROp::StPtr:
    OS << "stptr *" << vr(Srcs[0]) << ", " << vr(Srcs[1]);
    break;
  case IROp::AddrG:
    Dest() << "addrg @" << Sym;
    break;
  case IROp::AddrSlot:
    Dest() << "addrslot $" << Slot;
    break;
  case IROp::Call: {
    Dest() << "call @" << Sym << "(";
    for (size_t I = 0; I < Srcs.size(); ++I)
      OS << (I ? ", " : "") << vr(Srcs[I]);
    OS << ")";
    break;
  }
  case IROp::CallInd: {
    Dest() << "calli *" << vr(Srcs[0]) << "(";
    for (size_t I = 1; I < Srcs.size(); ++I)
      OS << (I > 1 ? ", " : "") << vr(Srcs[I]);
    OS << ")";
    break;
  }
  case IROp::Print:
    OS << "print " << vr(Srcs[0]);
    break;
  case IROp::PrintC:
    OS << "printc " << vr(Srcs[0]);
    break;
  case IROp::Ret:
    OS << "ret";
    if (!Srcs.empty())
      OS << " " << vr(Srcs[0]);
    break;
  case IROp::Br:
    OS << "br bb" << Target1;
    break;
  case IROp::CondBr:
    OS << "condbr " << vr(Srcs[0]) << ", bb" << Target1 << ", bb"
       << Target2;
    break;
  }
  return OS.str();
}

std::vector<int> IRBlock::successors() const {
  if (!hasTerminator())
    return {};
  const IRInstr &T = Instrs.back();
  switch (T.Op) {
  case IROp::Br:
    return {T.Target1};
  case IROp::CondBr:
    if (T.Target1 == T.Target2)
      return {T.Target1};
    return {T.Target1, T.Target2};
  default:
    return {};
  }
}

IRBlock *IRFunction::newBlock() {
  auto B = std::make_unique<IRBlock>();
  B->Id = static_cast<int>(Blocks.size());
  Blocks.push_back(std::move(B));
  return Blocks.back().get();
}

std::string IRFunction::toString() const {
  std::ostringstream OS;
  OS << (IsStatic ? "static " : "") << "func " << Name << "("
     << NumParams << " params, " << NumVRegs << " vregs)";
  if (AddressTaken)
    OS << " [addrtaken]";
  if (MakesIndirectCalls)
    OS << " [indcalls]";
  OS << "\n";
  for (const IRSlot &S : Slots)
    OS << "  slot $" << (&S - Slots.data()) << ": " << S.Name << " ["
       << S.SizeWords << "]\n";
  for (const auto &B : Blocks) {
    OS << "bb" << B->Id << ":\n";
    for (const IRInstr &I : B->Instrs)
      OS << "  " << I.toString() << "\n";
  }
  return OS.str();
}

IRFunction *IRModule::findFunction(const std::string &FuncName) {
  for (auto &F : Functions)
    if (F->Name == FuncName)
      return F.get();
  return nullptr;
}

IRGlobal *IRModule::findGlobal(const std::string &GlobalName) {
  for (IRGlobal &G : Globals)
    if (G.Name == GlobalName)
      return &G;
  return nullptr;
}

std::unique_ptr<IRModule> IRModule::clone() const {
  auto M = std::make_unique<IRModule>();
  M->Name = Name;
  M->Globals = Globals;
  M->Functions.reserve(Functions.size());
  for (const auto &F : Functions) {
    auto C = std::make_unique<IRFunction>();
    C->Name = F->Name;
    C->Module = F->Module;
    C->IsStatic = F->IsStatic;
    C->AddressTaken = F->AddressTaken;
    C->MakesIndirectCalls = F->MakesIndirectCalls;
    C->ReturnsValue = F->ReturnsValue;
    C->NumParams = F->NumParams;
    C->NumVRegs = F->NumVRegs;
    C->Slots = F->Slots;
    C->Blocks.reserve(F->Blocks.size());
    for (const auto &B : F->Blocks)
      C->Blocks.push_back(std::make_unique<IRBlock>(*B));
    M->Functions.push_back(std::move(C));
  }
  return M;
}

std::string IRModule::toString() const {
  std::ostringstream OS;
  OS << "module " << Name << "\n";
  for (const IRGlobal &G : Globals) {
    OS << (G.IsStatic ? "static " : "") << "global @" << G.Name << " ["
       << G.SizeWords << "]";
    if (G.AddressTaken)
      OS << " [aliased]";
    if (!G.FuncInit.empty())
      OS << " = &" << G.FuncInit;
    OS << "\n";
  }
  for (const auto &F : Functions)
    OS << F->toString();
  return OS.str();
}
