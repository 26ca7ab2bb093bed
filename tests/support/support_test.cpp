//===- support_test.cpp - Support and target utility tests ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/DynBitset.h"
#include "support/FileIO.h"
#include "support/StringUtils.h"
#include "target/MachineInstr.h"
#include "target/Registers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace ipra;

namespace {

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtilsTest, ParseInt) {
  long long V = 0;
  EXPECT_TRUE(parseInt("-42", V));
  EXPECT_EQ(V, -42);
  EXPECT_FALSE(parseInt("12x", V));
  EXPECT_FALSE(parseInt("", V));
  // Strict: no '+', no whitespace, and overflow is an error rather than
  // a saturated value; a failed parse leaves the value alone.
  EXPECT_FALSE(parseInt("+5", V));
  EXPECT_FALSE(parseInt(" 5", V));
  EXPECT_FALSE(parseInt("5 ", V));
  EXPECT_FALSE(parseInt("99999999999999999999", V));
  EXPECT_EQ(V, -42);
  // The range is the target type's.
  int I = 0;
  EXPECT_FALSE(parseInt("99999999999", I));
  EXPECT_TRUE(parseInt("-2147483648", I));
  EXPECT_EQ(I, -2147483647 - 1);
  unsigned char Byte = 0;
  EXPECT_FALSE(parseInt("256", Byte));
  EXPECT_FALSE(parseInt("-1", Byte));
  EXPECT_TRUE(parseInt("255", Byte));
  EXPECT_EQ(Byte, 255);
  unsigned Mask = 0;
  EXPECT_TRUE(parseInt("00ff00ff", Mask, 16));
  EXPECT_EQ(Mask, 0x00ff00ffu);
  EXPECT_FALSE(parseInt("1ffffffff", Mask, 16));
}

TEST(DiagnosticsTest, RenderingAndCounting) {
  DiagnosticEngine Diags;
  Diags.error("m.mc", SourceLoc(3, 7), "bad thing");
  Diags.warning("m.mc", SourceLoc(), "odd thing");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  std::string All = Diags.renderAll();
  EXPECT_NE(All.find("m.mc:3:7: error: bad thing"), std::string::npos);
  EXPECT_NE(All.find("warning: odd thing"), std::string::npos);
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DynBitsetTest, BasicOperations) {
  DynBitset A(100), B(100);
  A.set(0);
  A.set(63);
  A.set(64);
  A.set(99);
  EXPECT_TRUE(A.test(63));
  EXPECT_TRUE(A.test(64));
  EXPECT_FALSE(A.test(1));
  EXPECT_EQ(A.count(), 4u);
  EXPECT_EQ(A.bits(), (std::vector<size_t>{0, 63, 64, 99}));
  B.set(63);
  EXPECT_TRUE(A.intersects(B));
  B.reset(63);
  B.set(50);
  EXPECT_FALSE(A.intersects(B));
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_TRUE(A.test(50));
  EXPECT_FALSE(A.unionWith(B)); // Second union changes nothing.
  A.reset(50);
  EXPECT_FALSE(A.test(50));
  EXPECT_TRUE(A.any());
  EXPECT_FALSE(DynBitset(10).any());
}

// The publish leaves the final name whole or absent and never a temp
// file behind, also when the rename fails.
TEST(FileIOTest, AtomicPublishLeavesNoTempFiles) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::temp_directory_path() /
                       ("ipra_fileio_" + std::to_string(::getpid()));
  fs::remove_all(Dir);
  fs::create_directories(Dir / "occupied");
  const std::string Path = (Dir / "entry").string();
  std::string Back;
  EXPECT_FALSE(readFile(Path, Back));
  ASSERT_TRUE(writeFileAtomic(Path, std::string("a\0b", 3)));
  ASSERT_TRUE(writeFileAtomic(Path, "second"));
  ASSERT_TRUE(readFile(Path, Back));
  EXPECT_EQ(Back, "second");
  // A directory sits at the final name: the rename fails.
  EXPECT_FALSE(writeFileAtomic((Dir / "occupied").string(), "x"));
  std::vector<std::string> Names;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Names.push_back(E.path().filename().string());
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(Names, (std::vector<std::string>{"entry", "occupied"}));
  fs::remove_all(Dir);
}

TEST(RegistersTest, ConventionShapes) {
  EXPECT_EQ(pr32::maskCount(pr32::calleeSavedMask()), 16u);
  EXPECT_EQ(pr32::calleeSavedMask() & pr32::callerSavedMask(), 0u);
  EXPECT_TRUE(pr32::isCalleeSaved(3));
  EXPECT_TRUE(pr32::isCalleeSaved(18));
  EXPECT_FALSE(pr32::isCalleeSaved(19));
  EXPECT_FALSE(pr32::isAllocatable(pr32::Zero));
  EXPECT_FALSE(pr32::isAllocatable(pr32::SP));
  EXPECT_FALSE(pr32::isAllocatable(pr32::AT));
  EXPECT_FALSE(pr32::isAllocatable(pr32::RP));
  EXPECT_EQ(pr32::maskCount(pr32::defaultWebColoringPool()), 6u);
  EXPECT_EQ(pr32::defaultWebColoringPool() & ~pr32::calleeSavedMask(),
            0u);
  EXPECT_EQ(pr32::regName(13), "r13");
  EXPECT_EQ(pr32::maskToString(pr32::maskOf(3) | pr32::maskOf(10)),
            "{r3,r10}");
}

TEST(MachineInstrTest, UsesAndDefs) {
  MInstr Add;
  Add.Op = MOp::ADD;
  Add.A = MOperand::makeReg(5);
  Add.B = MOperand::makeReg(6);
  Add.C = MOperand::makeImm(3);
  std::vector<unsigned> Uses, Defs;
  Add.appendUses(Uses);
  Add.appendDefs(Defs);
  EXPECT_EQ(Uses, (std::vector<unsigned>{6}));
  EXPECT_EQ(Defs, (std::vector<unsigned>{5}));

  MInstr Call;
  Call.Op = MOp::BL;
  Call.NumArgs = 2;
  Call.HasResult = true;
  Uses.clear();
  Defs.clear();
  Call.appendUses(Uses);
  Call.appendDefs(Defs);
  EXPECT_EQ(Uses, (std::vector<unsigned>{pr32::FirstArgReg,
                                         pr32::FirstArgReg + 1}));
  EXPECT_EQ(Defs, (std::vector<unsigned>{pr32::RP, pr32::RV}));

  MInstr Store;
  Store.Op = MOp::STW;
  Store.A = MOperand::makeReg(7);
  Store.B = MOperand::makeReg(pr32::SP);
  Store.C = MOperand::makeImm(4);
  Uses.clear();
  Defs.clear();
  Store.appendUses(Uses);
  Store.appendDefs(Defs);
  EXPECT_EQ(Uses, (std::vector<unsigned>{7, pr32::SP}));
  EXPECT_TRUE(Defs.empty());
}

TEST(MachineInstrTest, ReplaceUsesVsDefs) {
  MInstr Add;
  Add.Op = MOp::ADD;
  Add.A = MOperand::makeReg(5);
  Add.B = MOperand::makeReg(5);
  Add.C = MOperand::makeReg(5);
  Add.replaceRegUses(5, 9);
  EXPECT_EQ(Add.A.RegNo, 5u); // Def untouched.
  EXPECT_EQ(Add.B.RegNo, 9u);
  EXPECT_EQ(Add.C.RegNo, 9u);
  Add.replaceRegDefs(5, 11);
  EXPECT_EQ(Add.A.RegNo, 11u);
}

TEST(MachineInstrTest, CycleCosts) {
  EXPECT_EQ(cycleCost(MOp::ADD), 1u);
  EXPECT_EQ(cycleCost(MOp::LDW), 1u);
  EXPECT_EQ(cycleCost(MOp::MUL), 4u);
  EXPECT_EQ(cycleCost(MOp::DIV), 16u);
  EXPECT_EQ(cycleCost(MOp::REM), 16u);
}

TEST(MachineInstrTest, Printing) {
  MInstr Ld;
  Ld.Op = MOp::LDW;
  Ld.A = MOperand::makeReg(5);
  Ld.B = MOperand::makeReg(pr32::SP);
  Ld.C = MOperand::makeImm(2);
  EXPECT_EQ(Ld.toString(), "ldw r5, [r30+2]");

  MInstr CB;
  CB.Op = MOp::CB;
  CB.CC = Cond::GE;
  CB.A = MOperand::makeReg(4);
  CB.B = MOperand::makeImm(0);
  CB.C = MOperand::makeLabel(7);
  EXPECT_EQ(CB.toString(), "cb.ge r4, 0, .L7");
}

} // namespace
