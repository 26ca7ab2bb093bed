//===- Lowering.cpp - IR to PR32 instruction selection --------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "codegen/Lowering.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace ipra;

namespace {

class LoweringImpl {
public:
  LoweringImpl(const IRModule &M, const IRFunction &F,
               const ProcDirectives &Dir)
      : M(M), F(F), Dir(Dir) {}

  std::unique_ptr<MachineFunction> run();

private:
  /// The machine register carrying IR vreg \p V.
  unsigned mreg(unsigned V) const { return VirtRegBase + V; }

  /// Qualified name for a module-level symbol referenced as \p Plain.
  std::string qualify(const std::string &Plain) const;

  /// Returns the dedicated register if \p Plain names a global promoted
  /// in this procedure, or ~0u.
  unsigned promotedRegFor(const std::string &Plain) const;

  void emit(MInstr I) { Cur->Instrs.push_back(std::move(I)); }
  void emitMove(unsigned Dst, unsigned Src) {
    if (Dst == Src)
      return;
    MInstr I;
    I.Op = MOp::MOV;
    I.A = MOperand::makeReg(Dst);
    I.B = MOperand::makeReg(Src);
    emit(std::move(I));
  }
  /// Loads the address of global \p Plain into a fresh temp register.
  unsigned emitGlobalAddr(const std::string &Plain) {
    unsigned T = MF->newVReg();
    emit(globalAddr(T, qualify(Plain)));
    return T;
  }
  /// Computes the address of frame slot \p Slot into a fresh temp.
  unsigned emitSlotAddr(int Slot) {
    unsigned T = MF->newVReg();
    MInstr I;
    I.Op = MOp::ADD;
    I.A = MOperand::makeReg(T);
    I.B = MOperand::makeReg(pr32::SP);
    I.C = MOperand::makeFrame(Slot);
    emit(std::move(I));
    return T;
  }

  void lowerBlock(const IRBlock &B);
  void lowerInstr(const IRBlock &B, size_t Index, const IRInstr &I);
  void lowerCall(const IRInstr &I);
  void lowerCondBr(const IRBlock &B, const IRInstr &I);

  /// Index within the block of a compare fused into this block's
  /// terminating CondBr, or SIZE_MAX.
  size_t fusedCompareIndex(const IRBlock &B) const;

  const IRModule &M;
  const IRFunction &F;
  const ProcDirectives &Dir;
  std::unique_ptr<MachineFunction> MF;
  MBlock *Cur = nullptr;
  std::vector<unsigned> IRUseCounts;
  std::unordered_map<const IRBlock *, size_t> FusedCompare;
};

} // namespace

std::string LoweringImpl::qualify(const std::string &Plain) const {
  for (const IRGlobal &G : M.Globals)
    if (G.Name == Plain)
      return G.qualifiedName();
  for (const auto &Fn : M.Functions)
    if (Fn->Name == Plain)
      return Fn->qualifiedName();
  return Plain; // External symbol.
}

unsigned LoweringImpl::promotedRegFor(const std::string &Plain) const {
  // Directives use qualified names.
  for (const PromotedGlobal &P : Dir.Promoted) {
    // Compare against both the plain and qualified spelling.
    if (P.QualName == Plain)
      return P.Reg;
  }
  return ~0u;
}

size_t LoweringImpl::fusedCompareIndex(const IRBlock &B) const {
  if (!B.hasTerminator() || B.terminator().Op != IROp::CondBr)
    return SIZE_MAX;
  unsigned CondReg = B.terminator().Srcs[0];
  if (IRUseCounts[CondReg] != 1)
    return SIZE_MAX;
  // Find the defining compare inside this block.
  size_t DefIndex = SIZE_MAX;
  for (size_t I = 0; I + 1 < B.Instrs.size(); ++I) {
    const IRInstr &Instr = B.Instrs[I];
    if (Instr.HasDst && Instr.Dst == CondReg) {
      DefIndex = Instr.Op == IROp::Bin && isCompare(Instr.BK) ? I : SIZE_MAX;
    }
  }
  if (DefIndex == SIZE_MAX)
    return SIZE_MAX;
  // The compare's operands must not be redefined between the compare and
  // the terminator.
  const IRInstr &Cmp = B.Instrs[DefIndex];
  for (size_t I = DefIndex + 1; I + 1 < B.Instrs.size(); ++I) {
    const IRInstr &Instr = B.Instrs[I];
    if (!Instr.HasDst)
      continue;
    for (unsigned Src : Cmp.Srcs)
      if (Instr.Dst == Src)
        return SIZE_MAX;
  }
  return DefIndex;
}

std::unique_ptr<MachineFunction> LoweringImpl::run() {
  MF = std::make_unique<MachineFunction>();
  MF->Name = F.Name;
  MF->QualName = F.qualifiedName();
  MF->NextVReg = VirtRegBase + F.NumVRegs;

  // IR slots become the first frame slots, index-for-index.
  for (const IRSlot &S : F.Slots)
    MF->newFrameSlot(S.SizeWords);

  // Use counts drive compare/branch fusion.
  IRUseCounts.assign(F.NumVRegs, 0);
  for (const auto &B : F.Blocks)
    for (const IRInstr &I : B->Instrs)
      for (unsigned Src : I.Srcs)
        ++IRUseCounts[Src];

  for (const auto &B : F.Blocks) {
    MF->Blocks.push_back(MBlock{B->Id, {}});
  }

  for (const auto &B : F.Blocks) {
    Cur = &MF->Blocks[B->Id];
    if (B->Id == 0) {
      // Copy incoming arguments out of the argument registers.
      for (unsigned P = 0; P < F.NumParams && P < pr32::NumArgRegs; ++P)
        emitMove(mreg(P), pr32::FirstArgReg + P);
    }
    lowerBlock(*B);
  }
  return std::move(MF);
}

void LoweringImpl::lowerBlock(const IRBlock &B) {
  size_t Fused = fusedCompareIndex(B);
  for (size_t I = 0; I < B.Instrs.size(); ++I) {
    if (I == Fused)
      continue; // Folded into the terminating CB.
    lowerInstr(B, I, B.Instrs[I]);
  }
}

void LoweringImpl::lowerCall(const IRInstr &I) {
  MF->MakesCalls = true;
  bool Indirect = I.Op == IROp::CallInd;
  size_t FirstArg = Indirect ? 1 : 0;
  size_t NumArgs = I.Srcs.size() - FirstArg;
  assert(NumArgs <= pr32::NumArgRegs && "argument count checked by Sema");

  std::string QualCallee = Indirect ? std::string() : qualify(I.Sym);

  // §7.6.1 split-web wrap: calls that can reach another reference region
  // of a promoted global synchronize the dedicated register with memory
  // around the call.
  std::vector<const PromotedGlobal *> Wraps;
  for (const PromotedGlobal &P : Dir.Promoted) {
    bool Wrap = Indirect ? P.WrapIndirect
                         : std::find(P.WrapCallees.begin(),
                                     P.WrapCallees.end(),
                                     QualCallee) != P.WrapCallees.end();
    if (Wrap)
      Wraps.push_back(&P);
  }
  auto EmitSync = [this](const PromotedGlobal &P, bool IsStore) {
    emit(globalAddr(pr32::AT, P.QualName));
    emit(memAccess(IsStore ? MOp::STW : MOp::LDW, MemClass::GlobalScalar,
                   P.Reg, pr32::AT));
  };
  for (const PromotedGlobal *P : Wraps)
    if (P->WebModifies)
      EmitSync(*P, /*IsStore=*/true);

  for (size_t A = 0; A < NumArgs; ++A)
    emitMove(pr32::FirstArgReg + static_cast<unsigned>(A),
             mreg(I.Srcs[FirstArg + A]));

  MInstr Call;
  Call.NumArgs = static_cast<uint8_t>(NumArgs);
  Call.HasResult = I.HasDst;
  if (Indirect) {
    Call.Op = MOp::BLR;
    Call.A = MOperand::makeReg(mreg(I.Srcs[0]));
  } else {
    Call.Op = MOp::BL;
    Call.A = MOperand::makeSym(QualCallee);
  }
  emit(std::move(Call));

  for (const PromotedGlobal *P : Wraps)
    EmitSync(*P, /*IsStore=*/false);

  if (I.HasDst)
    emitMove(mreg(I.Dst), pr32::RV);
}

void LoweringImpl::lowerCondBr(const IRBlock &B, const IRInstr &I) {
  size_t Fused = fusedCompareIndex(B);
  MInstr CB;
  CB.Op = MOp::CB;
  if (Fused != SIZE_MAX) {
    const IRInstr &Cmp = B.Instrs[Fused];
    CB.CC = binForm(Cmp.BK).CC;
    CB.A = MOperand::makeReg(mreg(Cmp.Srcs[0]));
    CB.B = MOperand::makeReg(mreg(Cmp.Srcs[1]));
  } else {
    CB.CC = Cond::NE;
    CB.A = MOperand::makeReg(mreg(I.Srcs[0]));
    CB.B = MOperand::makeImm(0);
  }
  CB.C = MOperand::makeLabel(I.Target1);
  emit(std::move(CB));
  MInstr Br;
  Br.Op = MOp::B;
  Br.A = MOperand::makeLabel(I.Target2);
  emit(std::move(Br));
}

void LoweringImpl::lowerInstr(const IRBlock &B, size_t Index,
                              const IRInstr &I) {
  (void)Index;
  switch (I.Op) {
  case IROp::Const: {
    MInstr K;
    K.Op = MOp::LDI;
    K.A = MOperand::makeReg(mreg(I.Dst));
    K.B = MOperand::makeImm(I.Imm);
    emit(std::move(K));
    return;
  }
  case IROp::Copy:
    emitMove(mreg(I.Dst), mreg(I.Srcs[0]));
    return;
  case IROp::Bin: {
    MInstr A;
    A.Op = binForm(I.BK).Op;
    A.CC = binForm(I.BK).CC;
    A.A = MOperand::makeReg(mreg(I.Dst));
    A.B = MOperand::makeReg(mreg(I.Srcs[0]));
    A.C = MOperand::makeReg(mreg(I.Srcs[1]));
    emit(std::move(A));
    return;
  }
  case IROp::Neg:
  case IROp::Not: {
    MInstr U;
    U.Op = I.Op == IROp::Neg ? MOp::NEG : MOp::NOT;
    U.A = MOperand::makeReg(mreg(I.Dst));
    U.B = MOperand::makeReg(mreg(I.Srcs[0]));
    emit(std::move(U));
    return;
  }
  case IROp::LdG: {
    std::string Qual = qualify(I.Sym);
    unsigned PR = promotedRegFor(Qual);
    if (PR != ~0u) {
      emitMove(mreg(I.Dst), PR);
      return;
    }
    emit(memAccess(MOp::LDW, MemClass::GlobalScalar, mreg(I.Dst),
                   emitGlobalAddr(I.Sym)));
    return;
  }
  case IROp::StG: {
    std::string Qual = qualify(I.Sym);
    unsigned PR = promotedRegFor(Qual);
    if (PR != ~0u) {
      emitMove(PR, mreg(I.Srcs[0]));
      return;
    }
    emit(memAccess(MOp::STW, MemClass::GlobalScalar, mreg(I.Srcs[0]),
                   emitGlobalAddr(I.Sym)));
    return;
  }
  case IROp::LdSlot:
    emit(frameLoad(mreg(I.Dst), I.Slot));
    return;
  case IROp::StSlot:
    emit(frameStore(mreg(I.Srcs[0]), I.Slot));
    return;
  case IROp::LdElem:
  case IROp::StElem: {
    bool IsLoad = I.Op == IROp::LdElem;
    unsigned Base =
        I.Sym.empty() ? emitSlotAddr(I.Slot) : emitGlobalAddr(I.Sym);
    unsigned Addr = MF->newVReg();
    MInstr Add;
    Add.Op = MOp::ADD;
    Add.A = MOperand::makeReg(Addr);
    Add.B = MOperand::makeReg(Base);
    Add.C = MOperand::makeReg(mreg(I.Srcs[0]));
    emit(std::move(Add));
    emit(memAccess(IsLoad ? MOp::LDW : MOp::STW, MemClass::Element,
                   IsLoad ? mreg(I.Dst) : mreg(I.Srcs[1]), Addr));
    return;
  }
  case IROp::LdPtr:
  case IROp::StPtr: {
    bool IsLoad = I.Op == IROp::LdPtr;
    emit(memAccess(IsLoad ? MOp::LDW : MOp::STW, MemClass::Indirect,
                   IsLoad ? mreg(I.Dst) : mreg(I.Srcs[1]), mreg(I.Srcs[0])));
    return;
  }
  case IROp::AddrG:
    emit(globalAddr(mreg(I.Dst), qualify(I.Sym)));
    return;
  case IROp::AddrSlot: {
    unsigned T = emitSlotAddr(I.Slot);
    emitMove(mreg(I.Dst), T);
    return;
  }
  case IROp::Call:
  case IROp::CallInd:
    lowerCall(I);
    return;
  case IROp::Print:
  case IROp::PrintC: {
    MInstr P;
    P.Op = I.Op == IROp::Print ? MOp::PRINT : MOp::PRINTC;
    P.A = MOperand::makeReg(mreg(I.Srcs[0]));
    emit(std::move(P));
    return;
  }
  case IROp::Ret: {
    if (!I.Srcs.empty())
      emitMove(pr32::RV, mreg(I.Srcs[0]));
    MInstr Ret;
    Ret.Op = MOp::BV;
    Ret.A = MOperand::makeReg(pr32::RP);
    emit(std::move(Ret));
    return;
  }
  case IROp::Br: {
    MInstr Br;
    Br.Op = MOp::B;
    Br.A = MOperand::makeLabel(I.Target1);
    emit(std::move(Br));
    return;
  }
  case IROp::CondBr:
    lowerCondBr(B, I);
    return;
  }
}

std::unique_ptr<MachineFunction> ipra::lowerFunction(
    const IRModule &M, const IRFunction &F, const ProcDirectives &Dir) {
  LoweringImpl Impl(M, F, Dir);
  return Impl.run();
}
