//===- IR.h - Three-address intermediate representation --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate representation produced by the compiler first phase
/// and consumed by the optimizer and second phase. It is a conventional
/// three-address form over an unbounded set of per-function virtual
/// registers, organized into basic blocks with explicit terminators.
///
/// Memory is symbolic at this level: loads/stores name a global, a stack
/// slot, an (array base, index) pair, or a computed pointer, so that the
/// second phase can classify each access the way the paper's measurements
/// need (singleton vs. element/indirect, Table 5) and so promoted global
/// accesses can be rewritten into register references.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_IR_IR_H
#define IPRA_IR_IR_H

#include "support/Arith.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ipra {

/// IR opcodes (see the operand conventions on IRInstr).
enum class IROp : uint8_t {
  Const,    ///< Dst = Imm
  Copy,     ///< Dst = Srcs[0]
  Bin,      ///< Dst = Srcs[0] <BK> Srcs[1] (support/Arith.h)
  Neg,      ///< Dst = -Srcs[0]
  Not,      ///< Dst = ~Srcs[0]
  LdG,      ///< Dst = load global Sym            (singleton access)
  StG,      ///< store global Sym = Srcs[0]       (singleton access)
  LdSlot,   ///< Dst = load stack slot Slot       (singleton access)
  StSlot,   ///< store slot Slot = Srcs[0]        (singleton access)
  LdElem,   ///< Dst = load base[Srcs[0]]; base is Sym or Slot (element)
  StElem,   ///< store base[Srcs[0]] = Srcs[1]               (element)
  LdPtr,    ///< Dst = load *Srcs[0]              (indirect access)
  StPtr,    ///< store *Srcs[0] = Srcs[1]         (indirect access)
  AddrG,    ///< Dst = address of global/function Sym
  AddrSlot, ///< Dst = address of stack slot Slot
  Call,     ///< [Dst =] call Sym(Srcs...)
  CallInd,  ///< [Dst =] call *Srcs[0](Srcs[1...])
  Print,    ///< print integer Srcs[0]
  PrintC,   ///< print character Srcs[0]
  Ret,      ///< return [Srcs[0]]
  Br,       ///< goto Target1
  CondBr,   ///< if Srcs[0] != 0 goto Target1 else goto Target2
};

/// One three-address instruction.
struct IRInstr {
  IROp Op = IROp::Const;
  BinKind BK = BinKind::Add;
  bool HasDst = false;
  unsigned Dst = 0;           ///< Virtual register defined, if HasDst.
  std::vector<unsigned> Srcs; ///< Virtual registers used.
  int32_t Imm = 0;            ///< For Const.
  std::string Sym;  ///< Global/function name for LdG/StG/AddrG/Call/LdElem.
  int Slot = -1;    ///< Stack slot for LdSlot/StSlot/AddrSlot/LdElem base.
  int Target1 = -1; ///< Block id for Br/CondBr.
  int Target2 = -1; ///< Block id for CondBr false edge.

  bool isTerminator() const {
    return Op == IROp::Ret || Op == IROp::Br || Op == IROp::CondBr;
  }
  bool isCall() const { return Op == IROp::Call || Op == IROp::CallInd; }
  /// True if removing this instruction when Dst is dead is safe.
  bool isPure() const {
    switch (Op) {
    case IROp::Const:
    case IROp::Copy:
    case IROp::Bin:
    case IROp::Neg:
    case IROp::Not:
    case IROp::AddrG:
    case IROp::AddrSlot:
    case IROp::LdG:
    case IROp::LdSlot:
    case IROp::LdElem:
    case IROp::LdPtr:
      return true;
    default:
      return false;
    }
  }
  /// True if the instruction reads or writes memory.
  bool touchesMemory() const {
    switch (Op) {
    case IROp::LdG:
    case IROp::StG:
    case IROp::LdSlot:
    case IROp::StSlot:
    case IROp::LdElem:
    case IROp::StElem:
    case IROp::LdPtr:
    case IROp::StPtr:
      return true;
    default:
      return false;
    }
  }
  bool isStore() const {
    return Op == IROp::StG || Op == IROp::StSlot || Op == IROp::StElem ||
           Op == IROp::StPtr;
  }

  std::string toString() const;
};

/// A basic block: straight-line instructions ending in one terminator.
struct IRBlock {
  int Id = -1;
  std::vector<IRInstr> Instrs;

  const IRInstr &terminator() const {
    assert(!Instrs.empty() && Instrs.back().isTerminator() &&
           "block has no terminator");
    return Instrs.back();
  }
  bool hasTerminator() const {
    return !Instrs.empty() && Instrs.back().isTerminator();
  }
  /// Successor block ids in CFG order (true target first for CondBr).
  std::vector<int> successors() const;
};

/// A stack slot: an address-taken scalar local or a local array.
struct IRSlot {
  std::string Name;
  int SizeWords = 1;
  bool IsArray = false;
};

/// One function in IR form. IRModule::clone copies each field by name,
/// so a new field must be copied there too.
class IRFunction {
public:
  std::string Name;
  std::string Module;    ///< Module that defines this function.
  bool IsStatic = false; ///< Module-private (§7.4).
  bool AddressTaken = false;
  bool MakesIndirectCalls = false;
  bool ReturnsValue = false;
  unsigned NumParams = 0; ///< Params arrive in vregs 0..NumParams-1.
  unsigned NumVRegs = 0;
  std::vector<std::unique_ptr<IRBlock>> Blocks; ///< Blocks[0] is entry.
  std::vector<IRSlot> Slots;

  /// Allocates a fresh virtual register.
  unsigned newVReg() { return NumVRegs++; }
  /// Appends a new block and returns it.
  IRBlock *newBlock();
  IRBlock *entry() { return Blocks.front().get(); }
  const IRBlock *entry() const { return Blocks.front().get(); }
  IRBlock *block(int Id) {
    assert(Id >= 0 && static_cast<size_t>(Id) < Blocks.size());
    return Blocks[Id].get();
  }
  const IRBlock *block(int Id) const {
    assert(Id >= 0 && static_cast<size_t>(Id) < Blocks.size());
    return Blocks[Id].get();
  }

  /// Qualified name used by the linker and program analyzer: statics are
  /// qualified as "module:name", exported symbols keep their plain name.
  std::string qualifiedName() const {
    return IsStatic ? Module + ":" + Name : Name;
  }

  std::string toString() const;
};

/// One global variable in IR form. Scalars have SizeWords == 1; a global
/// is eligible for interprocedural promotion only if it is an unaliased
/// scalar (§4.1.2).
struct IRGlobal {
  std::string Name;
  std::string Module;
  bool IsStatic = false;
  bool IsArray = false;
  bool AddressTaken = false; ///< Aliased; ineligible for promotion.
  int SizeWords = 1;
  std::vector<int32_t> Init;  ///< Initial words; zero-filled if shorter.
  std::string FuncInit; ///< Non-empty: initialize with address of function.

  std::string qualifiedName() const {
    return IsStatic ? Module + ":" + Name : Name;
  }
  bool isPromotableShape() const { return !IsArray && SizeWords == 1; }
};

/// One module (compilation unit) in IR form.
class IRModule {
public:
  std::string Name;
  std::vector<IRGlobal> Globals;
  std::vector<std::unique_ptr<IRFunction>> Functions;

  IRFunction *findFunction(const std::string &FuncName);
  IRGlobal *findGlobal(const std::string &GlobalName);

  /// A deep copy, so the clone can be optimized further while this
  /// module stays as it is (the fused build keeps one as phase 1's IR
  /// file for phase 2).
  std::unique_ptr<IRModule> clone() const;

  std::string toString() const;
};

} // namespace ipra

#endif // IPRA_IR_IR_H
