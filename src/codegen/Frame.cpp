//===- Frame.cpp - Prologue/epilogue and frame lowering -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "codegen/Frame.h"

#include <cassert>

using namespace ipra;

namespace {

MInstr makeSPAdjust(int Delta) {
  MInstr I;
  I.Op = MOp::ADD;
  I.A = MOperand::makeReg(pr32::SP);
  I.B = MOperand::makeReg(pr32::SP);
  I.C = MOperand::makeImm(Delta);
  return I;
}

} // namespace

FrameInfo ipra::finalizeFrame(MachineFunction &MF,
                              const ProcDirectives &Dir,
                              const RegAllocResult &RA) {
  FrameInfo Info;

  // Which callee-saves registers must this procedure save?
  RegMask ToSave = RA.UsedCalleeToSave;
  if (Dir.IsClusterRoot)
    ToSave |= Dir.MSpill; // Root spills MSPILL regardless of use.
  for (const PromotedGlobal &P : Dir.Promoted)
    if (P.IsEntry)
      ToSave |= pr32::maskOf(P.Reg); // Entry preserves the caller's value.

  // Frame layout: existing slots (IR locals + spills) first, then one
  // word per saved register, then the RP save slot.
  std::vector<unsigned> SaveRegs = pr32::maskRegs(ToSave);
  std::vector<int> SaveSlots;
  for (unsigned R : SaveRegs) {
    (void)R;
    SaveSlots.push_back(MF.newFrameSlot(1));
  }
  int RPSlot = -1;
  if (MF.MakesCalls)
    RPSlot = MF.newFrameSlot(1);

  // Assign offsets.
  std::vector<int> Offsets(MF.FrameSlotWords.size(), 0);
  int Offset = 0;
  for (size_t S = 0; S < MF.FrameSlotWords.size(); ++S) {
    Offsets[S] = Offset;
    Offset += MF.FrameSlotWords[S];
  }
  int FrameWords = Offset;

  // Rewrite Frame operands into SP offsets.
  for (MBlock &B : MF.Blocks)
    for (MInstr &I : B.Instrs)
      for (MOperand *Op : {&I.A, &I.B, &I.C})
        if (Op->isFrame()) {
          int Idx = Op->FrameIdx;
          assert(Idx >= 0 &&
                 Idx < static_cast<int>(Offsets.size()) &&
                 "frame index out of range");
          *Op = MOperand::makeImm(Offsets[Idx]);
        }

  // Build the prologue.
  std::vector<MInstr> Prologue;
  if (FrameWords > 0)
    Prologue.push_back(makeSPAdjust(-FrameWords));
  if (RPSlot >= 0)
    Prologue.push_back(frameStore(pr32::RP, RPSlot));
  for (size_t S = 0; S < SaveRegs.size(); ++S)
    Prologue.push_back(frameStore(SaveRegs[S], SaveSlots[S]));
  for (const PromotedGlobal &P : Dir.Promoted) {
    if (!P.IsEntry)
      continue;
    Prologue.push_back(globalAddr(pr32::AT, P.QualName));
    Prologue.push_back(memAccess(MOp::LDW, MemClass::GlobalScalar, P.Reg, pr32::AT));
  }
  // Resolve the Frame refs the prologue itself introduced.
  for (MInstr &I : Prologue)
    for (MOperand *Op : {&I.A, &I.B, &I.C})
      if (Op->isFrame())
        *Op = MOperand::makeImm(Offsets[Op->FrameIdx]);

  // Build the epilogue (mirror order).
  std::vector<MInstr> Epilogue;
  for (const PromotedGlobal &P : Dir.Promoted) {
    if (!P.IsEntry || !P.WebModifies)
      continue;
    Epilogue.push_back(globalAddr(pr32::AT, P.QualName));
    Epilogue.push_back(memAccess(MOp::STW, MemClass::GlobalScalar, P.Reg, pr32::AT));
  }
  for (size_t S = SaveRegs.size(); S-- > 0;)
    Epilogue.push_back(frameLoad(SaveRegs[S], SaveSlots[S]));
  if (RPSlot >= 0)
    Epilogue.push_back(frameLoad(pr32::RP, RPSlot));
  if (FrameWords > 0)
    Epilogue.push_back(makeSPAdjust(FrameWords));
  for (MInstr &I : Epilogue)
    for (MOperand *Op : {&I.A, &I.B, &I.C})
      if (Op->isFrame())
        *Op = MOperand::makeImm(Offsets[Op->FrameIdx]);

  // Insert the prologue at function entry.
  if (!MF.Blocks.empty()) {
    auto &Entry = MF.Blocks[0].Instrs;
    Entry.insert(Entry.begin(), Prologue.begin(), Prologue.end());
  }

  // Insert the epilogue before every return (BV through RP).
  for (MBlock &B : MF.Blocks) {
    std::vector<MInstr> Out;
    Out.reserve(B.Instrs.size());
    for (MInstr &I : B.Instrs) {
      bool IsReturn = I.Op == MOp::BV && I.A.isReg() &&
                      I.A.RegNo == pr32::RP;
      if (IsReturn)
        Out.insert(Out.end(), Epilogue.begin(), Epilogue.end());
      Out.push_back(std::move(I));
    }
    B.Instrs = std::move(Out);
  }

  Info.FrameWords = FrameWords;
  Info.SavedRegs = ToSave;
  Info.SavedRP = RPSlot >= 0;
  return Info;
}
