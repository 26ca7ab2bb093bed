//===- objectio_test.cpp - Object serialization unit tests ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "link/Linker.h"
#include "link/ObjectIO.h"

#include <gtest/gtest.h>

using namespace ipra;

namespace {

ObjectFile sampleObject() {
  ObjectFile Obj;
  Obj.Module = "m.mc";

  ObjGlobal G;
  G.QualName = "g";
  G.SizeWords = 20;
  for (int I = 0; I < 20; ++I)
    G.Init.push_back(I * 3 - 5);
  Obj.Globals.push_back(std::move(G));

  ObjGlobal H;
  H.QualName = "m.mc:handler";
  H.SizeWords = 1;
  H.FuncInit = "cb";
  Obj.Globals.push_back(std::move(H));

  ObjFunction F;
  F.QualName = "main";
  MInstr Ldi;
  Ldi.Op = MOp::LDI;
  Ldi.A = MOperand::makeReg(19);
  Ldi.B = MOperand::makeImm(-42);
  F.Code.push_back(Ldi);
  MInstr Addr;
  Addr.Op = MOp::ADDRG;
  Addr.A = MOperand::makeReg(20);
  Addr.B = MOperand::makeSym("g");
  F.Code.push_back(Addr);
  MInstr Ld;
  Ld.Op = MOp::LDW;
  Ld.MC = MemClass::GlobalScalar;
  Ld.A = MOperand::makeReg(21);
  Ld.B = MOperand::makeReg(20);
  Ld.C = MOperand::makeImm(0);
  F.Code.push_back(Ld);
  MInstr CB;
  CB.Op = MOp::CB;
  CB.CC = Cond::GE;
  CB.A = MOperand::makeReg(21);
  CB.B = MOperand::makeImm(0);
  CB.C = MOperand::makeLabel(5);
  F.Code.push_back(CB);
  MInstr Call;
  Call.Op = MOp::BL;
  Call.A = MOperand::makeSym("cb");
  Call.NumArgs = 2;
  Call.HasResult = true;
  F.Code.push_back(Call);
  MInstr Ret;
  Ret.Op = MOp::BV;
  Ret.A = MOperand::makeReg(pr32::RP);
  F.Code.push_back(Ret);
  Obj.Functions.push_back(std::move(F));

  ObjFunction Cb;
  Cb.QualName = "cb";
  MInstr Ret2 = Ret;
  Cb.Code.push_back(Ret2);
  Obj.Functions.push_back(std::move(Cb));
  return Obj;
}

TEST(ObjectIOTest, RoundTripIsExact) {
  ObjectFile Obj = sampleObject();
  std::string Text = writeObjectFile(Obj);
  ObjectFile Parsed;
  std::string Error;
  ASSERT_TRUE(readObjectFile(Text, Parsed, Error)) << Error;
  // Canonical: re-serialization is byte-identical.
  EXPECT_EQ(writeObjectFile(Parsed), Text);

  ASSERT_EQ(Parsed.Globals.size(), 2u);
  EXPECT_EQ(Parsed.Globals[0].Init, Obj.Globals[0].Init);
  EXPECT_EQ(Parsed.Globals[1].FuncInit, "cb");
  ASSERT_EQ(Parsed.Functions.size(), 2u);
  ASSERT_EQ(Parsed.Functions[0].Code.size(), 6u);
  const MInstr &CB = Parsed.Functions[0].Code[3];
  EXPECT_EQ(CB.Op, MOp::CB);
  EXPECT_EQ(CB.CC, Cond::GE);
  EXPECT_EQ(CB.C.Kind, MOperand::Label);
  EXPECT_EQ(CB.C.LabelId, 5);
  const MInstr &Call = Parsed.Functions[0].Code[4];
  EXPECT_EQ(Call.NumArgs, 2);
  EXPECT_TRUE(Call.HasResult);
  const MInstr &Ld = Parsed.Functions[0].Code[2];
  EXPECT_EQ(Ld.MC, MemClass::GlobalScalar);
}

TEST(ObjectIOTest, ParsedObjectLinksAndMatches) {
  ObjectFile Obj = sampleObject();
  std::string Text = writeObjectFile(Obj);
  ObjectFile Parsed;
  std::string Error;
  ASSERT_TRUE(readObjectFile(Text, Parsed, Error)) << Error;

  auto Direct = linkObjects({Obj});
  auto ViaText = linkObjects({Parsed});
  ASSERT_TRUE(Direct.Success);
  ASSERT_TRUE(ViaText.Success);
  ASSERT_EQ(Direct.Exe.Code.size(), ViaText.Exe.Code.size());
  for (size_t I = 0; I < Direct.Exe.Code.size(); ++I)
    EXPECT_EQ(Direct.Exe.Code[I].toString(),
              ViaText.Exe.Code[I].toString())
        << I;
  EXPECT_EQ(Direct.Exe.DataInit, ViaText.Exe.DataInit);
}

TEST(ObjectIOTest, MalformedInputsRejected) {
  ObjectFile Out;
  std::string Error;
  EXPECT_FALSE(readObjectFile("bogus\n", Out, Error));
  EXPECT_NE(Error.find("line 1: unknown record 'bogus'"), std::string::npos);
  EXPECT_FALSE(readObjectFile("init 1 2 3\n", Out, Error));
  EXPECT_NE(Error.find("'init' outside global"), std::string::npos);
  EXPECT_FALSE(readObjectFile("object m\ni add r1 r2 r3\n", Out, Error));
  EXPECT_NE(Error.find("'i' outside func"), std::string::npos);
  EXPECT_FALSE(
      readObjectFile("object m\nfunc f\ni frobnicate\n", Out, Error));
  EXPECT_NE(Error.find("line 3: malformed opcode 'frobnicate'"),
            std::string::npos);
  EXPECT_FALSE(
      readObjectFile("object m\nfunc f\ni add r1 r2 r3 r4\n", Out, Error));
  EXPECT_NE(Error.find("line 3: unexpected token 'r4'"), std::string::npos);

  // One corrupted value at a time in a valid object: each is rejected
  // with the line and the field named.
  const std::string Valid = writeObjectFile(sampleObject());
  ASSERT_TRUE(readObjectFile(Valid, Out, Error)) << Error;
  struct Case {
    std::string From, To, Expect;
  };
  const Case Cases[] = {
      {"size=20", "size=zz", "line 2: malformed size=zz"},
      {"args=2", "args=999", "malformed args=999"},
      {"args=2", "args=-1", "malformed args=-1"},
      {"init -5", "init 99999999999", "line 3: malformed init word"},
      {"i ldi r19", "i ldi q19", "malformed operand 'q19'"},
      {"i ldw/global", "i ldw/none", "malformed opcode 'ldw/none'"},
      {"i cb.ge", "i cb", "malformed opcode 'cb'"},
      {"args=2", "args=2 args=2", "duplicate args= field"},
      {" ret", " ret ret", "duplicate ret"},
      {"i bv r2", "i bv r2 args=1", "unexpected args= field"},
      {"size=20", "size=20 bogus=1", "line 2: unknown field 'bogus=1'"},
  };
  for (const Case &C : Cases) {
    std::string Text = Valid;
    Text.replace(Text.find(C.From), C.From.size(), C.To);
    Error.clear();
    EXPECT_FALSE(readObjectFile(Text, Out, Error)) << Text;
    EXPECT_NE(Error.find(C.Expect), std::string::npos)
        << C.To << " gave: " << Error;
  }
}

TEST(ObjectIOTest, EmptyObjectRoundTrips) {
  ObjectFile Obj;
  Obj.Module = "empty.mc";
  std::string Text = writeObjectFile(Obj);
  ObjectFile Parsed;
  std::string Error;
  ASSERT_TRUE(readObjectFile(Text, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.Module, "empty.mc");
  EXPECT_TRUE(Parsed.Globals.empty());
  EXPECT_TRUE(Parsed.Functions.empty());
}

} // namespace
