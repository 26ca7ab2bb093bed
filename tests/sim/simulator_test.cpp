//===- simulator_test.cpp - PR32 simulator unit tests ---------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <map>

using namespace ipra;

namespace {

/// Builds an executable from raw instructions placed after the standard
/// stub (BL 2; HALT), with an optional data image.
Executable makeExe(std::vector<MInstr> Body,
                   std::vector<int32_t> Data = {}) {
  Executable Exe;
  MInstr Call;
  Call.Op = MOp::BL;
  Call.A = MOperand::makeImm(2);
  Call.HasResult = true;
  Exe.Code.push_back(std::move(Call));
  MInstr Halt;
  Halt.Op = MOp::HALT;
  Exe.Code.push_back(std::move(Halt));
  for (MInstr &I : Body)
    Exe.Code.push_back(std::move(I));
  Exe.Symbols.push_back(ExeSymbol{
      "main", 2, static_cast<int>(Exe.Code.size())});
  Exe.DataInit = Data;
  Exe.DataWords = static_cast<int>(Data.size());
  Exe.StackWords = 4096;
  return Exe;
}

MInstr ldi(unsigned Reg, int32_t Value) {
  MInstr I;
  I.Op = MOp::LDI;
  I.A = MOperand::makeReg(Reg);
  I.B = MOperand::makeImm(Value);
  return I;
}
MInstr alu(MOp Op, unsigned D, unsigned S1, unsigned S2) {
  MInstr I;
  I.Op = Op;
  I.A = MOperand::makeReg(D);
  I.B = MOperand::makeReg(S1);
  I.C = MOperand::makeReg(S2);
  return I;
}
MInstr ret() {
  MInstr I;
  I.Op = MOp::BV;
  I.A = MOperand::makeReg(pr32::RP);
  return I;
}
MInstr movToRV(unsigned Src) {
  MInstr I;
  I.Op = MOp::MOV;
  I.A = MOperand::makeReg(pr32::RV);
  I.B = MOperand::makeReg(Src);
  return I;
}

TEST(SimulatorTest, ArithmeticAndExitCode) {
  auto Exe = makeExe({ldi(19, 6), ldi(20, 7), alu(MOp::MUL, 21, 19, 20),
                      movToRV(21), ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(SimulatorTest, SignedDivisionSemantics) {
  // -7 / 2 == -3 (truncating), x / 0 == 0, INT_MIN / -1 == INT_MIN.
  auto Check = [](int32_t A, int32_t B, int32_t Expect) {
    auto Exe = makeExe({ldi(19, A), ldi(20, B),
                        alu(MOp::DIV, 21, 19, 20), movToRV(21), ret()});
    auto R = runExecutable(Exe);
    ASSERT_TRUE(R.Halted);
    EXPECT_EQ(R.ExitCode, Expect) << A << "/" << B;
  };
  Check(-7, 2, -3);
  Check(7, 0, 0);
  Check(INT32_MIN, -1, INT32_MIN);
}

TEST(SimulatorTest, WrappingOverflow) {
  auto Exe = makeExe({ldi(19, INT32_MAX), ldi(20, 1),
                      alu(MOp::ADD, 21, 19, 20), movToRV(21), ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.ExitCode, INT32_MIN);
}

TEST(SimulatorTest, R0IsAlwaysZero) {
  auto Exe = makeExe({ldi(pr32::Zero, 99), movToRV(pr32::Zero), ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(SimulatorTest, CycleCosts) {
  // LDI(1) + LDI(1) + MUL(4) + DIV(16) + MOV(1) + BV(1) + stub BL(1)
  // + HALT(1) = 26.
  auto Exe = makeExe({ldi(19, 6), ldi(20, 3), alu(MOp::MUL, 21, 19, 20),
                      alu(MOp::DIV, 22, 21, 20), movToRV(22), ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.Stats.Cycles, 26);
  EXPECT_EQ(R.Stats.Instructions, 8);
}

TEST(SimulatorTest, MemoryAndSingletonCounters) {
  MInstr St;
  St.Op = MOp::STW;
  St.MC = MemClass::GlobalScalar;
  St.A = MOperand::makeReg(19);
  St.B = MOperand::makeReg(pr32::Zero);
  St.C = MOperand::makeImm(0);
  MInstr Ld;
  Ld.Op = MOp::LDW;
  Ld.MC = MemClass::Element; // Not a singleton.
  Ld.A = MOperand::makeReg(20);
  Ld.B = MOperand::makeReg(pr32::Zero);
  Ld.C = MOperand::makeImm(0);
  auto Exe = makeExe({ldi(19, 5), St, Ld, movToRV(20), ret()}, {0});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.ExitCode, 5);
  EXPECT_EQ(R.Stats.MemRefs, 2);
  EXPECT_EQ(R.Stats.SingletonRefs, 1);
}

TEST(SimulatorTest, OutOfBoundsTraps) {
  MInstr Ld;
  Ld.Op = MOp::LDW;
  Ld.A = MOperand::makeReg(19);
  Ld.B = MOperand::makeReg(pr32::Zero);
  Ld.C = MOperand::makeImm(-5);
  auto Exe = makeExe({Ld, ret()});
  auto R = runExecutable(Exe);
  EXPECT_FALSE(R.Halted);
  EXPECT_NE(R.Trap.find("out of bounds"), std::string::npos);
  EXPECT_NE(R.Trap.find("main"), std::string::npos); // Attribution.
}

TEST(SimulatorTest, FuelLimit) {
  MInstr Loop;
  Loop.Op = MOp::B;
  Loop.A = MOperand::makeImm(2); // Jump to self.
  auto Exe = makeExe({Loop});
  auto R = runExecutable(Exe, 1000);
  EXPECT_FALSE(R.Halted);
  EXPECT_TRUE(R.OutOfFuel);
  EXPECT_LE(R.Stats.Cycles, 1001);
}

TEST(SimulatorTest, ConditionalBranches) {
  // if (3 < 5) rv = 1 else rv = 2.
  MInstr CB;
  CB.Op = MOp::CB;
  CB.CC = Cond::LT;
  CB.A = MOperand::makeReg(19);
  CB.B = MOperand::makeReg(20);
  CB.C = MOperand::makeImm(7); // Taken target: the "rv=1" path at index 7.
  auto Exe = makeExe({ldi(19, 3), ldi(20, 5), CB, ldi(pr32::RV, 2),
                      ret(), ldi(pr32::RV, 1), ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(SimulatorTest, PrintOutput) {
  MInstr P;
  P.Op = MOp::PRINT;
  P.A = MOperand::makeReg(19);
  MInstr PC;
  PC.Op = MOp::PRINTC;
  PC.A = MOperand::makeReg(20);
  auto Exe = makeExe({ldi(19, -12), P, ldi(20, 'x'), PC, ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.Output, "-12\nx");
}

TEST(SimulatorTest, ProfileAttributesCalls) {
  // main calls aux twice through BL.
  Executable Exe;
  MInstr Stub;
  Stub.Op = MOp::BL;
  Stub.A = MOperand::makeImm(2);
  Exe.Code.push_back(Stub);
  MInstr Halt;
  Halt.Op = MOp::HALT;
  Exe.Code.push_back(Halt);
  // main at 2: bl 7; bl 7; bv r2  -- with RP juggling via r21.
  MInstr SaveRP;
  SaveRP.Op = MOp::MOV;
  SaveRP.A = MOperand::makeReg(21);
  SaveRP.B = MOperand::makeReg(pr32::RP);
  MInstr CallAux;
  CallAux.Op = MOp::BL;
  CallAux.A = MOperand::makeImm(7);
  MInstr RestoreRP;
  RestoreRP.Op = MOp::MOV;
  RestoreRP.A = MOperand::makeReg(pr32::RP);
  RestoreRP.B = MOperand::makeReg(21);
  Exe.Code.push_back(SaveRP);    // 2
  Exe.Code.push_back(CallAux);   // 3
  Exe.Code.push_back(CallAux);   // 4
  Exe.Code.push_back(RestoreRP); // 5
  Exe.Code.push_back(ret());     // 6
  Exe.Code.push_back(ret());     // 7: aux
  Exe.Symbols = {{"main", 2, 7}, {"aux", 7, 8}};
  Exe.StackWords = 128;

  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.Profile.CallCounts.at("aux"), 2);
  EXPECT_EQ(R.Profile.CallCounts.at("main"), 1);
  EXPECT_EQ((R.Profile.EdgeCounts.at({"main", "aux"})), 2);
  EXPECT_EQ((R.Profile.EdgeCounts.at({"__start", "main"})), 1);
  EXPECT_EQ(R.Stats.Calls, 3);
}

MInstr blr(unsigned Reg) {
  MInstr I;
  I.Op = MOp::BLR;
  I.A = MOperand::makeReg(Reg);
  return I;
}

TEST(SimulatorTest, CallsOutsideEverySymbolTrap) {
  // main's symbol ends before the trailing NOP at pc 5, and pc 40 is
  // past the end of the code: a call to either traps, attributed to the
  // calling instruction's symbol.
  for (int Target : {5, 40}) {
    auto Exe = makeExe({ldi(19, Target), blr(19), ret(), MInstr()});
    Exe.Symbols[0].End = 5;
    auto R = runExecutable(Exe);
    EXPECT_FALSE(R.Halted);
    EXPECT_EQ(R.Trap, "call to invalid target " + std::to_string(Target) +
                          " at pc=3 (in main)");
    EXPECT_EQ(R.Stats.Calls, 2);
    EXPECT_EQ(R.Profile.CallCounts, (std::map<std::string, long long>{
                                        {"main", 1}}));
  }
}

/// main (pc 2) calls f twice through a register; f (pc 9) recurses
/// through BL while r19 is non-zero, saving RP on the stack. With
/// \p TrapAtBottom, the innermost f loads out of bounds instead of
/// returning.
Executable recursionExe(bool TrapAtBottom) {
  auto mem = [](MOp Op, unsigned Reg, unsigned Base, int32_t Off) {
    MInstr I;
    I.Op = Op;
    I.A = MOperand::makeReg(Reg);
    I.B = MOperand::makeReg(Base);
    I.C = MOperand::makeImm(Off);
    I.MC = MemClass::StackScalar;
    return I;
  };
  MInstr Bottom;
  Bottom.Op = MOp::CB;
  Bottom.CC = Cond::EQ;
  Bottom.A = MOperand::makeReg(19);
  Bottom.B = MOperand::makeImm(0);
  Bottom.C = MOperand::makeImm(17);
  MInstr Recurse;
  Recurse.Op = MOp::BL;
  Recurse.A = MOperand::makeImm(9);
  MInstr SaveRP = movToRV(pr32::RP), RestoreRP = movToRV(21);
  SaveRP.A = MOperand::makeReg(21);
  RestoreRP.A = MOperand::makeReg(pr32::RP);
  auto Exe = makeExe({
      SaveRP, ldi(19, 3), ldi(22, 9), blr(22), blr(22), RestoreRP,
      ret(),                                             // main: 2-8
      Bottom, ldi(20, 1), alu(MOp::SUB, 19, 19, 20),     // f: 9-11
      alu(MOp::SUB, pr32::SP, pr32::SP, 20),             // 12
      mem(MOp::STW, pr32::RP, pr32::SP, 0), Recurse,     // 13-14
      mem(MOp::LDW, pr32::RP, pr32::SP, 0),              // 15
      alu(MOp::ADD, pr32::SP, pr32::SP, 20),             // 16
      TrapAtBottom ? mem(MOp::LDW, 23, pr32::Zero, -1) : ret()}); // 17
  Exe.Symbols = {{"main", 2, 9}, {"f", 9, 18}};
  return Exe;
}

using Counts = std::map<std::string, long long>;
using Edges = std::map<std::pair<std::string, std::string>, long long>;

TEST(SimulatorTest, ProfileUnderRecursionAndIndirectCalls) {
  auto R = runExecutable(recursionExe(/*TrapAtBottom=*/false));
  ASSERT_TRUE(R.Halted) << R.Trap;
  // f runs 1 + 3 levels deep from the first BLR, once from the second.
  EXPECT_EQ(R.Profile.CallCounts, (Counts{{"main", 1}, {"f", 5}}));
  EXPECT_EQ(R.Profile.EdgeCounts,
            (Edges{{{"__start", "main"}, 1},
                   {{"main", "f"}, 2},
                   {{"f", "f"}, 3}}));
  EXPECT_EQ(R.Stats.Calls, 6);
}

TEST(SimulatorTest, TrapAndFuelKeepThePartialProfile) {
  auto Trapped = runExecutable(recursionExe(/*TrapAtBottom=*/true));
  EXPECT_FALSE(Trapped.Halted);
  EXPECT_EQ(Trapped.Trap,
            "memory access out of bounds (addr=-1) at pc=17 (in f)");
  EXPECT_EQ(Trapped.Profile.CallCounts, (Counts{{"main", 1}, {"f", 4}}));
  EXPECT_EQ(Trapped.Profile.EdgeCounts,
            (Edges{{{"__start", "main"}, 1},
                   {{"main", "f"}, 1},
                   {{"f", "f"}, 3}}));

  // One cycle per instruction: the 12th is f's recursive BL, so the
  // 13th runs out of fuel inside the second activation of f.
  auto Starved = runExecutable(recursionExe(/*TrapAtBottom=*/false), 12);
  EXPECT_TRUE(Starved.OutOfFuel);
  EXPECT_FALSE(Starved.Halted);
  EXPECT_EQ(Starved.Stats.Calls, 3);
  EXPECT_EQ(Starved.Profile.CallCounts, (Counts{{"main", 1}, {"f", 2}}));
  EXPECT_EQ(Starved.Profile.EdgeCounts,
            (Edges{{{"__start", "main"}, 1},
                   {{"main", "f"}, 1},
                   {{"f", "f"}, 1}}));
}

TEST(SimulatorTest, CacheModelCountsMisses) {
  // Two loads from the same line: one D-miss. A loop re-executing the
  // same code: I-misses only on first touch.
  MInstr Ld1;
  Ld1.Op = MOp::LDW;
  Ld1.A = MOperand::makeReg(19);
  Ld1.B = MOperand::makeReg(pr32::Zero);
  Ld1.C = MOperand::makeImm(0);
  MInstr Ld2 = Ld1;
  Ld2.C = MOperand::makeImm(1); // Same 8-word line.
  MInstr Ld3 = Ld1;
  Ld3.C = MOperand::makeImm(9); // Different line.
  auto Exe = makeExe({Ld1, Ld2, Ld3, ret()},
                     std::vector<int32_t>(16, 7));
  CacheConfig Cache;
  Cache.Enabled = true;
  auto R = runExecutable(Exe, 1'000'000, Cache);
  ASSERT_TRUE(R.Halted) << R.Trap;
  EXPECT_EQ(R.Stats.DCacheMisses, 2);
  EXPECT_GE(R.Stats.ICacheMisses, 1);
  // Misses cost extra cycles relative to the uncached run.
  auto Plain = runExecutable(Exe);
  EXPECT_EQ(R.Stats.Cycles, Plain.Stats.Cycles +
                                Cache.MissPenalty *
                                    (R.Stats.ICacheMisses +
                                     R.Stats.DCacheMisses));
}

TEST(SimulatorTest, CacheDisabledByDefault) {
  auto Exe = makeExe({ldi(19, 1), movToRV(19), ret()});
  auto R = runExecutable(Exe);
  EXPECT_EQ(R.Stats.ICacheMisses, 0);
  EXPECT_EQ(R.Stats.DCacheMisses, 0);
}

TEST(SimulatorTest, ShiftsMaskTo31) {
  auto Exe = makeExe({ldi(19, 1), ldi(20, 33),
                      alu(MOp::SHL, 21, 19, 20), movToRV(21), ret()});
  auto R = runExecutable(Exe);
  ASSERT_TRUE(R.Halted);
  EXPECT_EQ(R.ExitCode, 2); // 33 & 31 == 1.
}

} // namespace
