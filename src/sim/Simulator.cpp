//===- Simulator.cpp - PR32 interpreter and profiler -----------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "target/Registers.h"

#include <array>
#include <map>
#include <vector>

using namespace ipra;

namespace {

/// One instruction as the step loop reads it, decoded once per run: the
/// MInstr fields a step uses, without the symbol name (a std::string)
/// each of its MOperands carries, and with the cycle cost, the
/// singleton class and the BinKind of an ALU, CMP or CB looked up.
struct Decoded {
  struct Operand {
    unsigned RegNo;
    int32_t ImmVal;
    bool IsReg;
  };
  MOp Op;
  BinKind BK;
  uint8_t Cost;
  bool Singleton;
  Operand A, B, C;

  explicit Decoded(const MInstr &I)
      : Op(I.Op), BK(binKindOf(I.Op, I.CC)),
        Cost(static_cast<uint8_t>(cycleCost(I.Op))),
        Singleton(isSingleton(I.MC)), A(operand(I.A)), B(operand(I.B)),
        C(operand(I.C)) {}
  static Operand operand(const MOperand &X) {
    return {X.RegNo, X.ImmVal, X.isReg()};
  }
};

class Machine {
public:
  Machine(const Executable &Exe, long long Fuel, const CacheConfig &Cache)
      : Exe(Exe), Fuel(Fuel), Cache(Cache) {
    Memory.assign(Exe.memoryWords(), 0);
    for (size_t W = 0; W < Exe.DataInit.size(); ++W)
      Memory[W] = Exe.DataInit[W];
    Regs[pr32::SP] = Exe.memoryWords(); // Stack grows down from the top.
    Code.reserve(Exe.Code.size());
    SymOf.reserve(Exe.Code.size());
    for (int Pc = 0; Pc < static_cast<int>(Exe.Code.size()); ++Pc) {
      Code.emplace_back(Exe.Code[Pc]);
      SymOf.push_back(symbolIndex(Exe.symbolAt(Pc)));
    }
    CallCounts.assign(Exe.Symbols.size(), 0);
    CallerStack.push_back(StartCaller);
    if (Cache.Enabled) {
      ICacheTags.assign(static_cast<size_t>(Cache.ICacheLines), -1);
      DCacheTags.assign(static_cast<size_t>(Cache.DCacheLines), -1);
    }
  }

  RunResult run();

  /// The call profile under ProfileData's names. Symbols are counted by
  /// index while running; two symbols with one name add up, as they
  /// did under the name.
  ProfileData profile() const;

private:
  /// The caller of main: the startup stub, outside every symbol.
  static constexpr int StartCaller = -1;

  int symbolIndex(const ExeSymbol *Sym) const {
    return Sym ? static_cast<int>(Sym - Exe.Symbols.data()) : -1;
  }
  /// The symbol covering call target \p Target, or -1. Only a malformed
  /// executable has symbols past the code, so the fallback runs at most
  /// once, right before the pc leaves the code and traps.
  int calleeAt(int Target) const {
    if (Target >= 0 && Target < static_cast<int>(SymOf.size()))
      return SymOf[Target];
    return symbolIndex(Exe.symbolAt(Target));
  }

  /// r0 reads as zero: writeReg never writes it.
  int32_t readReg(unsigned R) const { return Regs[R]; }
  void writeReg(unsigned R, int32_t V) {
    if (R != pr32::Zero)
      Regs[R] = V;
  }
  int32_t operandValue(const Decoded::Operand &Op) const {
    if (Op.IsReg)
      return readReg(Op.RegNo);
    return Op.ImmVal;
  }
  void trap(RunResult &Result, const std::string &Message) {
    Result.Trap = Message + " at pc=" + std::to_string(Pc);
    const ExeSymbol *Sym = Exe.symbolAt(Pc);
    if (Sym)
      Result.Trap += " (in " + Sym->QualName + ")";
  }

  /// Direct-mapped cache probe; returns true on a miss.
  static bool cacheProbe(std::vector<long long> &Tags, int Lines,
                         int LineWords, long long Addr) {
    long long Line = Addr / LineWords;
    size_t Index = static_cast<size_t>(Line % Lines);
    if (Tags[Index] == Line)
      return false;
    Tags[Index] = Line;
    return true;
  }

  const Executable &Exe;
  long long Fuel;
  CacheConfig Cache;
  std::array<int32_t, pr32::NumRegs> Regs{};
  std::vector<int32_t> Memory;
  std::vector<long long> ICacheTags, DCacheTags;
  int Pc = 0;
  std::vector<Decoded> Code;
  std::vector<int> SymOf; ///< pc -> index into Exe.Symbols, or -1.
  std::vector<long long> CallCounts;               ///< Per symbol index.
  std::map<std::pair<int, int>, long long> EdgeCounts; ///< Caller, callee.
  std::vector<int> CallerStack;
};

ProfileData Machine::profile() const {
  auto Name = [this](int Sym) -> const std::string & {
    static const std::string Start = "__start";
    return Sym == StartCaller ? Start : Exe.Symbols[Sym].QualName;
  };
  ProfileData P;
  for (size_t Sym = 0; Sym < CallCounts.size(); ++Sym)
    if (CallCounts[Sym])
      P.CallCounts[Exe.Symbols[Sym].QualName] += CallCounts[Sym];
  for (const auto &[Edge, N] : EdgeCounts)
    P.EdgeCounts[{Name(Edge.first), Name(Edge.second)}] += N;
  return P;
}

RunResult Machine::run() {
  RunResult Result;
  // The counters live in a local whose address never escapes (trap()
  // and the output appends take only Result), so the step loop keeps
  // them in registers. Every exit leaves the loop and they are copied
  // out once, below.
  RunStats S;

  for (bool Running = true; Running;) {
    if (Pc < 0 || Pc >= static_cast<int>(Code.size())) {
      trap(Result, "pc out of code segment");
      break;
    }
    const Decoded &I = Code[Pc];
    S.Cycles += I.Cost;
    ++S.Instructions;
    if (Cache.Enabled &&
        cacheProbe(ICacheTags, Cache.ICacheLines, Cache.LineWords, Pc)) {
      ++S.ICacheMisses;
      S.Cycles += Cache.MissPenalty;
    }
    if (S.Cycles > Fuel) {
      Result.OutOfFuel = true;
      break;
    }

    int Next = Pc + 1;
    switch (I.Op) {
    case MOp::LDI:
    case MOp::ADDRG: // Post-link both carry an immediate.
      writeReg(I.A.RegNo, I.B.ImmVal);
      break;
    case MOp::LDW:
    case MOp::STW: {
      int64_t Addr = static_cast<int64_t>(readReg(I.B.RegNo)) + I.C.ImmVal;
      if (Addr < 0 || Addr >= static_cast<int64_t>(Memory.size())) {
        trap(Result, "memory access out of bounds (addr=" +
                         std::to_string(Addr) + ")");
        Running = false;
        break;
      }
      ++S.MemRefs;
      if (I.Singleton)
        ++S.SingletonRefs;
      if (Cache.Enabled &&
          cacheProbe(DCacheTags, Cache.DCacheLines, Cache.LineWords,
                     Addr)) {
        ++S.DCacheMisses;
        S.Cycles += Cache.MissPenalty;
      }
      if (I.Op == MOp::LDW)
        writeReg(I.A.RegNo, Memory[Addr]);
      else
        Memory[Addr] = readReg(I.A.RegNo);
      break;
    }
    case MOp::MOV:
      writeReg(I.A.RegNo, readReg(I.B.RegNo));
      break;
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
    case MOp::CMP:
      writeReg(I.A.RegNo,
               evalBin(I.BK, readReg(I.B.RegNo), operandValue(I.C)));
      break;
    case MOp::NEG:
      writeReg(I.A.RegNo, evalNeg(readReg(I.B.RegNo)));
      break;
    case MOp::NOT:
      writeReg(I.A.RegNo, ~readReg(I.B.RegNo));
      break;
    case MOp::CB:
      if (evalBin(I.BK, readReg(I.A.RegNo), operandValue(I.B)))
        Next = I.C.ImmVal;
      break;
    case MOp::B:
      Next = I.A.ImmVal;
      break;
    case MOp::BL:
    case MOp::BLR: {
      int Target = I.Op == MOp::BL ? I.A.ImmVal : readReg(I.A.RegNo);
      writeReg(pr32::RP, Pc + 1);
      ++S.Calls;
      int Callee = calleeAt(Target);
      if (Callee < 0) {
        trap(Result, "call to invalid target " + std::to_string(Target));
        Running = false;
        break;
      }
      ++CallCounts[Callee];
      ++EdgeCounts[{CallerStack.back(), Callee}];
      CallerStack.push_back(Callee);
      if (CallerStack.size() > 100000) {
        trap(Result, "call stack overflow");
        Running = false;
        break;
      }
      Next = Target;
      break;
    }
    case MOp::BV:
      // Codegen emits BV only as a return.
      Next = readReg(I.A.RegNo);
      if (CallerStack.size() > 1)
        CallerStack.pop_back();
      break;
    case MOp::PRINT:
      Result.Output += std::to_string(readReg(I.A.RegNo));
      Result.Output += '\n';
      break;
    case MOp::PRINTC:
      Result.Output += static_cast<char>(readReg(I.A.RegNo) & 0xFF);
      break;
    case MOp::HALT:
      Result.Halted = true;
      Result.ExitCode = readReg(pr32::RV);
      Running = false;
      break;
    case MOp::NOP:
      break;
    }
    Pc = Next;
  }
  Result.Stats = S;
  return Result;
}

} // namespace

RunResult ipra::runExecutable(const Executable &Exe, long long FuelCycles,
                              const CacheConfig &Cache) {
  Machine M(Exe, FuelCycles, Cache);
  RunResult Result = M.run();
  Result.Profile = M.profile(); // On every exit: halt, trap, out of fuel.
  return Result;
}
