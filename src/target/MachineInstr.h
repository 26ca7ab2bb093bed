//===- MachineInstr.h - PR32 machine instructions --------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PR32 machine instructions as used from instruction selection through
/// linking and simulation. An instruction has up to three operands
/// A/B/C; for ops that write a register, A is the destination. Memory
/// operations carry a MemClass so the simulator can classify memory
/// references the way Table 5 of the paper does.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_TARGET_MACHINEINSTR_H
#define IPRA_TARGET_MACHINEINSTR_H

#include "support/Arith.h"
#include "target/Registers.h"

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

namespace ipra {

/// PR32 opcodes.
enum class MOp {
  LDI,    ///< A <- imm B
  ADDRG,  ///< A <- address of global sym B (linker resolves to imm)
  LDW,    ///< A <- mem[B + C]
  STW,    ///< mem[B + C] <- A
  MOV,    ///< A <- B
  ADD,    ///< A <- B + C
  SUB,    ///< A <- B - C
  MUL,    ///< A <- B * C
  DIV,    ///< A <- B / C
  REM,    ///< A <- B % C
  AND,    ///< A <- B & C
  OR,     ///< A <- B | C
  XOR,    ///< A <- B ^ C
  SHL,    ///< A <- B << C
  SHR,    ///< A <- B >> C
  NEG,    ///< A <- -B
  NOT,    ///< A <- ~B
  CMP,    ///< A <- (B cc C) ? 1 : 0
  CB,     ///< if (A cc B) goto label C
  B,      ///< goto label A
  BL,     ///< call sym/label A; writes RP (and RV if HasResult)
  BLR,    ///< call through register A
  BV,     ///< return through register A (conventionally RP)
  PRINT,  ///< print register A as an integer
  PRINTC, ///< print register A as a character
  HALT,   ///< stop; exit status is RV
  NOP
};

/// Comparison conditions for CMP and CB.
enum class Cond { EQ, NE, LT, LE, GT, GE };

/// The PR32 form of one BinKind: an ALU opcode (CC unused, left EQ), or
/// CMP with the comparison's condition (CB branches on the same one).
struct BinForm {
  MOp Op;
  Cond CC;
};

/// Each BinKind's PR32 form, in BinKind order.
inline constexpr BinForm BinForms[] = {
    {MOp::ADD, Cond::EQ}, {MOp::SUB, Cond::EQ}, {MOp::MUL, Cond::EQ},
    {MOp::DIV, Cond::EQ}, {MOp::REM, Cond::EQ}, {MOp::AND, Cond::EQ},
    {MOp::OR, Cond::EQ},  {MOp::XOR, Cond::EQ}, {MOp::SHL, Cond::EQ},
    {MOp::SHR, Cond::EQ}, {MOp::CMP, Cond::LT}, {MOp::CMP, Cond::LE},
    {MOp::CMP, Cond::GT}, {MOp::CMP, Cond::GE}, {MOp::CMP, Cond::EQ},
    {MOp::CMP, Cond::NE}};
static_assert(std::size(BinForms) == std::size(BinKindNames));

constexpr const BinForm &binForm(BinKind BK) {
  return BinForms[static_cast<int>(BK)];
}

/// The BinKind an ALU opcode computes, or that a CMP or CB with \p CC
/// compares by. Other opcodes have none and get Add.
constexpr BinKind binKindOf(MOp Op, Cond CC) {
  MOp Form = Op == MOp::CB ? MOp::CMP : Op;
  for (size_t K = 0; K < std::size(BinForms); ++K)
    if (BinForms[K].Op == Form && (Form != MOp::CMP || BinForms[K].CC == CC))
      return static_cast<BinKind>(K);
  return BinKind::Add;
}

/// Memory reference classification, after the paper's Table 5 split of
/// singleton references (promotable scalars) from everything else.
enum class MemClass {
  None,         ///< Not a memory reference.
  StackScalar,  ///< A local scalar's stack slot.
  GlobalScalar, ///< A global scalar variable.
  Element,      ///< An array element.
  Indirect      ///< Through a pointer of unknown target.
};

/// Singleton references name exactly one memory word; these are the
/// references register promotion can remove.
inline bool isSingleton(MemClass MC) {
  return MC == MemClass::StackScalar || MC == MemClass::GlobalScalar;
}

/// Each enumerator's lowercase name, in enumerator order: the assembly
/// mnemonics and the object text's opcode tokens (link/ObjectIO.cpp).
inline constexpr const char *MOpNames[] = {
    "ldi", "addrg", "ldw", "stw", "mov", "add",   "sub",    "mul",  "div",
    "rem", "and",   "or",  "xor", "shl", "shr",   "neg",    "not",  "cmp",
    "cb",  "b",     "bl",  "blr", "bv",  "print", "printc", "halt", "nop"};
inline constexpr const char *CondNames[] = {"eq", "ne", "lt",
                                            "le", "gt", "ge"};
inline constexpr const char *MemClassNames[] = {"none", "stack", "global",
                                                "elem", "ind"};
static_assert(std::size(MOpNames) == static_cast<size_t>(MOp::NOP) + 1 &&
              std::size(CondNames) == static_cast<size_t>(Cond::GE) + 1 &&
              std::size(MemClassNames) ==
                  static_cast<size_t>(MemClass::Indirect) + 1);

/// Lowercase opcode mnemonic, e.g. "ldw".
inline const char *mopName(MOp Op) {
  return MOpNames[static_cast<int>(Op)];
}

/// Lowercase condition name, e.g. "ge".
inline const char *condName(Cond CC) {
  return CondNames[static_cast<int>(CC)];
}

/// Cycles the simulator charges for one executed instruction.
unsigned cycleCost(MOp Op);

/// Virtual registers live above the physical register file; codegen
/// numbers them from VirtRegBase and the allocator maps them down.
constexpr unsigned VirtRegBase = 256;

constexpr bool isVirtReg(unsigned Reg) { return Reg >= VirtRegBase; }
constexpr bool isPhysReg(unsigned Reg) { return Reg < pr32::NumRegs; }

/// One instruction operand.
struct MOperand {
  enum KindTy { None, Reg, Imm, Sym, Label, Frame };

  KindTy Kind = None;
  unsigned RegNo = 0;      ///< Physical or virtual register number.
  int32_t ImmVal = 0;      ///< Immediate value.
  std::string SymName;     ///< Global or function symbol.
  int LabelId = -1;        ///< Branch target label.
  int FrameIdx = -1;       ///< Frame slot, before frame finalization.

  static MOperand makeReg(unsigned R) {
    MOperand Op;
    Op.Kind = Reg;
    Op.RegNo = R;
    return Op;
  }
  static MOperand makeImm(int32_t V) {
    MOperand Op;
    Op.Kind = Imm;
    Op.ImmVal = V;
    return Op;
  }
  static MOperand makeSym(std::string Name) {
    MOperand Op;
    Op.Kind = Sym;
    Op.SymName = std::move(Name);
    return Op;
  }
  static MOperand makeLabel(int Id) {
    MOperand Op;
    Op.Kind = Label;
    Op.LabelId = Id;
    return Op;
  }
  static MOperand makeFrame(int Idx) {
    MOperand Op;
    Op.Kind = Frame;
    Op.FrameIdx = Idx;
    return Op;
  }

  bool isReg() const { return Kind == Reg; }
  bool isImm() const { return Kind == Imm; }
  bool isSym() const { return Kind == Sym; }
  bool isLabel() const { return Kind == Label; }
  bool isFrame() const { return Kind == Frame; }

  bool operator==(const MOperand &O) const = default;
};

/// One PR32 instruction.
struct MInstr {
  MOp Op = MOp::NOP;
  MOperand A, B, C;
  Cond CC = Cond::EQ;
  MemClass MC = MemClass::None;
  uint8_t NumArgs = 0;    ///< For calls: argument registers in use.
  bool HasResult = false; ///< For calls: callee writes RV.

  bool isCall() const { return Op == MOp::BL || Op == MOp::BLR; }

  bool operator==(const MInstr &O) const = default;

  bool isMemAccess() const { return Op == MOp::LDW || Op == MOp::STW; }

  /// Any control transfer (branches, calls, returns).
  bool isBranch() const {
    return Op == MOp::B || Op == MOp::CB || Op == MOp::BL ||
           Op == MOp::BLR || Op == MOp::BV;
  }

  /// Append the registers this instruction reads, in operand order.
  /// Calls read their argument registers (and BLR its target); HALT
  /// reads RV (the exit status).
  void appendUses(std::vector<unsigned> &Out) const;

  /// Append the registers this instruction writes. Calls write RP,
  /// plus RV when HasResult.
  void appendDefs(std::vector<unsigned> &Out) const;

  /// Does a register operand in a use (read) position name \p Reg?
  /// The implicit uses appendUses adds are not operands.
  bool readsOperand(unsigned Reg) const;

  /// Does the register operand in the def (write) position name \p Reg?
  /// The implicit defs of calls are not operands.
  bool writesOperand(unsigned Reg) const;

  /// Rewrite register operands in use (read) positions only.
  void replaceRegUses(unsigned From, unsigned To);

  /// Rewrite register operands in def (write) positions only.
  void replaceRegDefs(unsigned From, unsigned To);

  /// Assembly-ish rendering, e.g. "ldw r5, [r30+2]" or
  /// "cb.ge r4, 0, .L7".
  std::string toString() const;
};

} // namespace ipra

#endif // IPRA_TARGET_MACHINEINSTR_H
