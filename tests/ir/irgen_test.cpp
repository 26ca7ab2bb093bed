//===- irgen_test.cpp - AST-to-IR lowering unit tests ---------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::compileToIR;

namespace {

std::unique_ptr<IRModule> irOk(const std::string &Source) {
  DiagnosticEngine Diags;
  auto M = compileToIR("test.mc", Source, Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  if (M) {
    auto Problems = verifyModule(*M);
    EXPECT_TRUE(Problems.empty())
        << "verifier: " << Problems.front() << "\n"
        << M->toString();
  }
  return M;
}

/// Counts instructions in \p F matching \p Pred.
template <typename Pred> int countInstrs(const IRFunction &F, Pred P) {
  int N = 0;
  for (const auto &B : F.Blocks)
    for (const IRInstr &I : B->Instrs)
      if (P(I))
        ++N;
  return N;
}

TEST(IRGenTest, GlobalsLowered) {
  auto M = irOk("int g = 7;\nstatic int s;\nint a[3] = {1,2,3};\n"
                "char str[] = \"ab\";\nfunc h = &w;\n"
                "int w(int x) { return x; }\n");
  ASSERT_EQ(M->Globals.size(), 5u);
  EXPECT_EQ(M->Globals[0].Init, (std::vector<int32_t>{7}));
  EXPECT_TRUE(M->Globals[1].IsStatic);
  EXPECT_EQ(M->Globals[1].qualifiedName(), "test.mc:s");
  EXPECT_EQ(M->Globals[2].SizeWords, 3);
  EXPECT_TRUE(M->Globals[2].IsArray);
  EXPECT_EQ(M->Globals[3].SizeWords, 3); // 'a','b',NUL
  EXPECT_EQ(M->Globals[3].Init, (std::vector<int32_t>{'a', 'b', 0}));
  EXPECT_EQ(M->Globals[4].FuncInit, "w");
}

TEST(IRGenTest, ScalarLocalsLiveInVRegs) {
  auto M = irOk("int f(int a) { int b = a + 1; return b * 2; }\n");
  IRFunction *F = M->findFunction("f");
  ASSERT_TRUE(F);
  EXPECT_EQ(F->Slots.size(), 0u);
  EXPECT_EQ(F->NumParams, 1u);
}

TEST(IRGenTest, AddressTakenLocalGetsSlot) {
  auto M = irOk("int f() { int x = 3; int *p = &x; *p = 4; return x; }\n");
  IRFunction *F = M->findFunction("f");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->Slots.size(), 1u);
  EXPECT_EQ(F->Slots[0].Name, "x");
  // x is accessed through LdSlot/StSlot.
  EXPECT_GE(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::LdSlot || I.Op == IROp::StSlot;
            }),
            2);
}

TEST(IRGenTest, AddressTakenParamCopiedToSlot) {
  auto M = irOk("int g(int *p) { return *p; }\n"
                "int f(int a) { g(&a); return a; }\n");
  IRFunction *F = M->findFunction("f");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->Slots.size(), 1u);
  // Entry stores the incoming param into the slot.
  const IRInstr &First = F->entry()->Instrs.front();
  EXPECT_EQ(First.Op, IROp::StSlot);
  EXPECT_EQ(First.Srcs[0], 0u);
}

TEST(IRGenTest, LocalArrayUsesElemAccess) {
  auto M = irOk("int f() { int a[4]; a[0] = 1; return a[0]; }\n");
  IRFunction *F = M->findFunction("f");
  ASSERT_TRUE(F);
  ASSERT_EQ(F->Slots.size(), 1u);
  EXPECT_TRUE(F->Slots[0].IsArray);
  EXPECT_EQ(F->Slots[0].SizeWords, 4);
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::StElem && I.Slot == 0;
            }),
            1);
}

TEST(IRGenTest, GlobalScalarAccessIsLdGStG) {
  auto M = irOk("int g;\nint f() { g = g + 1; return g; }\n");
  IRFunction *F = M->findFunction("f");
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::LdG && I.Sym == "g";
            }),
            2);
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::StG && I.Sym == "g";
            }),
            1);
}

TEST(IRGenTest, PointerIndexingUsesLdPtr) {
  auto M = irOk("int f(int *p, int i) { return p[i]; }\n");
  IRFunction *F = M->findFunction("f");
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::LdPtr;
            }),
            1);
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::LdElem;
            }),
            0);
}

TEST(IRGenTest, ShortCircuitAndCreatesBranches) {
  auto M = irOk("int f(int a, int b) { if (a && b) return 1; return 0; }\n");
  IRFunction *F = M->findFunction("f");
  // Two CondBr: one per operand of &&.
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::CondBr;
            }),
            2);
}

TEST(IRGenTest, ShortCircuitInValueContext) {
  auto M = irOk("int f(int a, int b) { int c = a || b; return c; }\n");
  IRFunction *F = M->findFunction("f");
  EXPECT_GE(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::CondBr;
            }),
            2);
}

TEST(IRGenTest, CallsDirectAndIndirect) {
  auto M = irOk("int w(int x) { return x; }\n"
                "func cb = &w;\n"
                "int f() { return w(1) + cb(2); }\n");
  IRFunction *F = M->findFunction("f");
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::Call && I.Sym == "w";
            }),
            1);
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::CallInd;
            }),
            1);
}

TEST(IRGenTest, VoidCallNoDst) {
  auto M = irOk("void v(int x) { print(x); }\n"
                "int f() { v(3); return 0; }\n");
  IRFunction *F = M->findFunction("f");
  int Calls = 0;
  for (const auto &B : F->Blocks)
    for (const IRInstr &I : B->Instrs)
      if (I.Op == IROp::Call && I.Sym == "v") {
        ++Calls;
        EXPECT_FALSE(I.HasDst);
      }
  EXPECT_EQ(Calls, 1);
}

TEST(IRGenTest, StringLiteralBecomesStaticGlobal) {
  auto M = irOk("int f() { prints(\"hey\"); return 0; }\n");
  ASSERT_EQ(M->Globals.size(), 1u);
  EXPECT_TRUE(M->Globals[0].IsStatic);
  EXPECT_TRUE(M->Globals[0].IsArray);
  EXPECT_EQ(M->Globals[0].SizeWords, 4);
  // prints lowers to a call to the runtime __prints.
  IRFunction *F = M->findFunction("f");
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::Call && I.Sym == "__prints";
            }),
            1);
}

TEST(IRGenTest, ImplicitReturnZero) {
  auto M = irOk("int f(int a) { if (a) return 1; }\n");
  IRFunction *F = M->findFunction("f");
  int Rets = countInstrs(*F, [](const IRInstr &I) {
    return I.Op == IROp::Ret && !I.Srcs.empty();
  });
  EXPECT_EQ(Rets, 2); // Explicit and implicit.
}

TEST(IRGenTest, WhileLoopShape) {
  auto M = irOk("int f(int n) { int s = 0; while (n > 0) "
                "{ s = s + n; n = n - 1; } return s; }\n");
  IRFunction *F = M->findFunction("f");
  // cond block, body block, exit block at minimum (plus entry).
  EXPECT_GE(F->Blocks.size(), 4u);
}

TEST(IRGenTest, BreakContinueTargets) {
  auto M = irOk("int f(int n) { int s = 0;\n"
                "  for (int i = 0; i < n; i = i + 1) {\n"
                "    if (i == 3) continue;\n"
                "    if (i == 7) break;\n"
                "    s = s + i;\n"
                "  }\n"
                "  return s; }\n");
  IRFunction *F = M->findFunction("f");
  auto Problems = verifyFunction(*F);
  EXPECT_TRUE(Problems.empty());
}

TEST(IRGenTest, StaticFunctionQualifiedName) {
  auto M = irOk("static int helper(int a) { return a; }\n"
                "int f() { return helper(1); }\n");
  IRFunction *H = M->findFunction("helper");
  ASSERT_TRUE(H);
  EXPECT_EQ(H->qualifiedName(), "test.mc:helper");
  IRFunction *F = M->findFunction("f");
  EXPECT_EQ(F->qualifiedName(), "f");
}

TEST(IRCloneTest, CloneIsADeepCopy) {
  auto M = irOk("int g = 7;\nstatic int s;\nint a[3] = {1,2,3};\n"
                "func h = &w;\n"
                "int w(int x) { int b[2]; b[0] = x; return b[0] + g; }\n"
                "static void v(int n) { while (n > 0) { s = s + n;"
                " n = n - 1; } }\n");
  const std::string Before = M->toString();
  auto C = M->clone();
  ASSERT_TRUE(C);
  EXPECT_EQ(C->toString(), Before);
  ASSERT_EQ(C->Functions.size(), M->Functions.size());
  for (size_t I = 0; I < M->Functions.size(); ++I) {
    const IRFunction &F = *M->Functions[I];
    const IRFunction &G = *C->Functions[I];
    // Fields toString does not print are copied too.
    EXPECT_EQ(G.Module, F.Module);
    EXPECT_EQ(G.ReturnsValue, F.ReturnsValue);
    EXPECT_EQ(G.qualifiedName(), F.qualifiedName());
    ASSERT_EQ(G.Blocks.size(), F.Blocks.size());
    for (size_t B = 0; B < F.Blocks.size(); ++B)
      EXPECT_NE(G.Blocks[B].get(), F.Blocks[B].get());
  }

  // Mutate every level of the clone; the original must not move.
  IRFunction *W = C->findFunction("w");
  ASSERT_TRUE(W);
  W->entry()->Instrs.front().Imm += 41;
  W->entry()->Instrs.insert(W->entry()->Instrs.begin(), IRInstr());
  W->newBlock();
  W->Slots.push_back(IRSlot{"extra", 1, false});
  W->newVReg();
  C->findFunction("v")->Name = "renamed";
  C->Globals[0].Init[0] = 99;
  C->Functions.pop_back();
  EXPECT_NE(C->toString(), Before);
  EXPECT_EQ(M->toString(), Before);
  EXPECT_TRUE(verifyModule(*M).empty());
}

} // namespace
