//===- Interp.cpp - Reference IR interpreter --------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"

#include <cstdint>
#include <map>

using namespace ipra;

namespace {

/// Function "addresses" live far above any data address so that 'func'
/// values and pointers share the int32 value space without collision.
constexpr int32_t FuncBase = 1 << 28;

class Interpreter {
public:
  Interpreter(const std::vector<const IRModule *> &Modules,
              long long MaxSteps)
      : MaxSteps(MaxSteps) {
    // Lay out globals (common-symbol merge by qualified name) and
    // collect functions.
    for (const IRModule *M : Modules) {
      for (const IRGlobal &G : M->Globals) {
        auto [It, Inserted] = GlobalAddr.try_emplace(G.qualifiedName(), 0);
        if (Inserted) {
          It->second = static_cast<int32_t>(Memory.size());
          Memory.resize(Memory.size() + static_cast<size_t>(G.SizeWords),
                        0);
        }
        for (size_t W = 0;
             W < G.Init.size() && W < static_cast<size_t>(G.SizeWords);
             ++W)
          Memory[static_cast<size_t>(It->second) + W] = G.Init[W];
        if (!G.FuncInit.empty())
          PendingFuncInits.push_back({It->second, G.FuncInit, M->Name});
      }
      for (const auto &F : M->Functions) {
        int Id = static_cast<int>(Functions.size());
        Functions.push_back(F.get());
        FunctionIds[F->qualifiedName()] = Id;
      }
    }
    // Patch function-address initializers now that every id exists.
    for (const auto &[Addr, Name, Module] : PendingFuncInits) {
      int32_t Id = lookup(FunctionIds, Name, Module);
      if (Id != Unresolved)
        Memory[static_cast<size_t>(Addr)] = FuncBase + Id;
    }
    // Every name is known now and none changes while running, so each
    // instruction's symbol resolves here once, in its function's module.
    Resolved.resize(Functions.size());
    for (size_t Id = 0; Id < Functions.size(); ++Id) {
      const IRFunction *F = Functions[Id];
      for (const auto &B : F->Blocks) {
        std::vector<int32_t> &Out = Resolved[Id].emplace_back();
        for (const IRInstr &I : B->Instrs)
          Out.push_back(resolve(I, F->Module));
      }
    }
  }

  IRRunResult run() {
    IRRunResult Result;
    auto It = FunctionIds.find("main");
    if (It == FunctionIds.end()) {
      Result.Error = "no main function";
      return Result;
    }
    int32_t Ret = 0;
    std::vector<int32_t> Regs(Functions[It->second]->NumVRegs, 0);
    if (!call(It->second, Regs, Ret, Result))
      return Result;
    Result.Ok = true;
    Result.ExitCode = Ret;
    return Result;
  }

private:
  /// resolve() of an instruction whose symbol names nothing, or that
  /// has none. No address, callee id or function address is negative.
  static constexpr int32_t Unresolved = -1;

  /// \p Plain looked up in \p Ids within \p Module (statics first),
  /// then globally; Unresolved if neither names an entry.
  template <typename Map>
  static int32_t lookup(const Map &Ids, const std::string &Plain,
                        const std::string &Module) {
    auto It = Ids.find(Module + ":" + Plain);
    if (It == Ids.end())
      It = Ids.find(Plain);
    return It == Ids.end() ? Unresolved : It->second;
  }
  /// What \p I's symbol names from \p Module, or Unresolved: a Call's
  /// callee id (functions only); an AddrG's value (a global's address,
  /// else a function's); a global access's address. An unresolved
  /// symbol traps only when its instruction runs.
  int32_t resolve(const IRInstr &I, const std::string &Module) const {
    switch (I.Op) {
    case IROp::Call:
      return lookup(FunctionIds, I.Sym, Module);
    case IROp::AddrG: {
      int32_t Addr = lookup(GlobalAddr, I.Sym, Module);
      int32_t Id = lookup(FunctionIds, I.Sym, Module);
      return Addr != Unresolved ? Addr
             : Id != Unresolved ? FuncBase + Id
                                : Unresolved;
    }
    case IROp::LdG:
    case IROp::StG:
    case IROp::LdElem:
    case IROp::StElem:
      return lookup(GlobalAddr, I.Sym, Module);
    default:
      return Unresolved;
    }
  }

  bool load(int32_t Addr, int32_t &Value, IRRunResult &Result) {
    if (Addr < 0 || static_cast<size_t>(Addr) >= Memory.size()) {
      Result.Error =
          "memory load out of bounds (addr=" + std::to_string(Addr) + ")";
      return false;
    }
    Value = Memory[static_cast<size_t>(Addr)];
    return true;
  }
  bool store(int32_t Addr, int32_t Value, IRRunResult &Result) {
    if (Addr < 0 || static_cast<size_t>(Addr) >= Memory.size()) {
      Result.Error =
          "memory store out of bounds (addr=" + std::to_string(Addr) +
          ")";
      return false;
    }
    Memory[static_cast<size_t>(Addr)] = Value;
    return true;
  }

  /// Executes one function activation; \p Regs holds its arguments in
  /// its first registers. Returns false on trap/limit.
  bool call(int FuncId, std::vector<int32_t> &Regs, int32_t &Ret,
            IRRunResult &Result) {
    if (++Depth > 10000) {
      Result.Error = "call depth limit exceeded";
      return false;
    }
    const IRFunction *F = Functions[static_cast<size_t>(FuncId)];

    // Frame slots live in a dedicated region appended per activation.
    std::vector<int32_t> SlotAddr(F->Slots.size());
    size_t FrameBase = Memory.size();
    for (size_t S = 0; S < F->Slots.size(); ++S) {
      SlotAddr[S] = static_cast<int32_t>(Memory.size());
      Memory.resize(Memory.size() +
                        static_cast<size_t>(F->Slots[S].SizeWords),
                    0);
    }

    bool Ok = runBlocks(FuncId, Regs, SlotAddr, Ret, Result);
    Memory.resize(FrameBase); // Pop the frame.
    --Depth;
    return Ok;
  }

  bool runBlocks(int FuncId, std::vector<int32_t> &Regs,
                 const std::vector<int32_t> &SlotAddr, int32_t &Ret,
                 IRRunResult &Result);

  long long MaxSteps;
  long long Steps = 0;
  int Depth = 0;
  std::vector<int32_t> Memory;
  std::map<std::string, int32_t> GlobalAddr;
  std::vector<const IRFunction *> Functions;
  std::map<std::string, int> FunctionIds;
  /// Each instruction's resolve(), by function id, block and position.
  std::vector<std::vector<std::vector<int32_t>>> Resolved;
  std::string Output;
  struct PendingInit {
    int32_t Addr;
    std::string Name;
    std::string Module;
  };
  std::vector<PendingInit> PendingFuncInits;

public:
  std::string takeOutput() { return std::move(Output); }
  long long steps() const { return Steps; }
};

bool Interpreter::runBlocks(int FuncId, std::vector<int32_t> &Regs,
                            const std::vector<int32_t> &SlotAddr,
                            int32_t &Ret, IRRunResult &Result) {
  const IRFunction *F = Functions[static_cast<size_t>(FuncId)];
  int Block = 0;
  while (true) {
    const std::vector<IRInstr> &Instrs = F->block(Block)->Instrs;
    const int32_t *Sym = Resolved[static_cast<size_t>(FuncId)]
                                 [static_cast<size_t>(Block)]
                                     .data();
    for (const IRInstr &I : Instrs) {
      int32_t Target = *Sym++; // I's resolve().
      if (++Steps > MaxSteps) {
        Result.Error = "step limit exceeded";
        return false;
      }
      switch (I.Op) {
      case IROp::Const:
        Regs[I.Dst] = I.Imm;
        break;
      case IROp::Copy:
        Regs[I.Dst] = Regs[I.Srcs[0]];
        break;
      case IROp::Bin:
        Regs[I.Dst] = evalBin(I.BK, Regs[I.Srcs[0]], Regs[I.Srcs[1]]);
        break;
      case IROp::Neg:
        Regs[I.Dst] = evalNeg(Regs[I.Srcs[0]]);
        break;
      case IROp::Not:
        Regs[I.Dst] = ~Regs[I.Srcs[0]];
        break;
      case IROp::LdG:
      case IROp::StG:
      case IROp::AddrG: {
        if (Target == Unresolved) {
          Result.Error = "unresolved symbol '" + I.Sym + "'";
          return false;
        }
        if (I.Op == IROp::LdG) {
          if (!load(Target, Regs[I.Dst], Result))
            return false;
        } else if (I.Op == IROp::StG) {
          if (!store(Target, Regs[I.Srcs[0]], Result))
            return false;
        } else {
          Regs[I.Dst] = Target;
        }
        break;
      }
      case IROp::LdSlot:
        if (!load(SlotAddr[static_cast<size_t>(I.Slot)], Regs[I.Dst],
                  Result))
          return false;
        break;
      case IROp::StSlot:
        if (!store(SlotAddr[static_cast<size_t>(I.Slot)],
                   Regs[I.Srcs[0]], Result))
          return false;
        break;
      case IROp::LdElem:
      case IROp::StElem: {
        int32_t Base;
        if (!I.Sym.empty()) {
          Base = Target;
          if (Base == Unresolved) {
            Result.Error = "unresolved array '" + I.Sym + "'";
            return false;
          }
        } else {
          Base = SlotAddr[static_cast<size_t>(I.Slot)];
        }
        int32_t Addr = static_cast<int32_t>(
            static_cast<uint32_t>(Base) +
            static_cast<uint32_t>(Regs[I.Srcs[0]]));
        if (I.Op == IROp::LdElem) {
          if (!load(Addr, Regs[I.Dst], Result))
            return false;
        } else if (!store(Addr, Regs[I.Srcs[1]], Result)) {
          return false;
        }
        break;
      }
      case IROp::LdPtr:
        if (!load(Regs[I.Srcs[0]], Regs[I.Dst], Result))
          return false;
        break;
      case IROp::StPtr:
        if (!store(Regs[I.Srcs[0]], Regs[I.Srcs[1]], Result))
          return false;
        break;
      case IROp::AddrSlot:
        Regs[I.Dst] = SlotAddr[static_cast<size_t>(I.Slot)];
        break;
      case IROp::Call:
      case IROp::CallInd: {
        int Callee;
        size_t FirstArg = 0;
        if (I.Op == IROp::Call) {
          Callee = Target;
          if (Callee == Unresolved) {
            Result.Error = "call to undefined '" + I.Sym + "'";
            return false;
          }
        } else {
          Callee = Regs[I.Srcs[0]] - FuncBase;
          FirstArg = 1;
          if (Callee < 0 ||
              Callee >= static_cast<int>(Functions.size())) {
            Result.Error = "indirect call to invalid target";
            return false;
          }
        }
        const IRFunction *CF = Functions[static_cast<size_t>(Callee)];
        std::vector<int32_t> CalleeRegs(CF->NumVRegs, 0);
        for (size_t A = FirstArg;
             A < I.Srcs.size() && A - FirstArg < CF->NumParams; ++A)
          CalleeRegs[A - FirstArg] = Regs[I.Srcs[A]];
        int32_t CallRet = 0;
        if (!call(Callee, CalleeRegs, CallRet, Result))
          return false;
        if (I.HasDst)
          Regs[I.Dst] = CallRet;
        break;
      }
      case IROp::Print:
        Output += std::to_string(Regs[I.Srcs[0]]);
        Output += '\n';
        break;
      case IROp::PrintC:
        Output += static_cast<char>(Regs[I.Srcs[0]] & 0xFF);
        break;
      case IROp::Ret:
        Ret = I.Srcs.empty() ? 0 : Regs[I.Srcs[0]];
        return true;
      case IROp::Br:
        Block = I.Target1;
        break;
      case IROp::CondBr:
        Block = Regs[I.Srcs[0]] != 0 ? I.Target1 : I.Target2;
        break;
      }
      if (I.isTerminator())
        break; // Move to the next block (Block already updated).
    }
  }
}

} // namespace

IRRunResult ipra::interpretIR(const std::vector<const IRModule *> &Modules,
                              long long MaxSteps) {
  Interpreter Interp(Modules, MaxSteps);
  IRRunResult Result = Interp.run();
  Result.Output = Interp.takeOutput();
  Result.Steps = Interp.steps();
  return Result;
}
