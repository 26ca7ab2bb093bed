//===- opt_test.cpp - Level-2 optimizer unit tests ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/CFG.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::compileToIR;

namespace {

/// Options with intraprocedural global promotion disabled, for tests
/// that inspect raw LdG/StG patterns.
OptOptions noLocalPromotion() {
  OptOptions Options;
  Options.LocalGlobalPromotion = false;
  return Options;
}


std::unique_ptr<IRModule> irFor(const std::string &Source) {
  DiagnosticEngine Diags;
  auto M = compileToIR("test.mc", Source, Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  return M;
}

template <typename Pred> int countInstrs(const IRFunction &F, Pred P) {
  int N = 0;
  for (const auto &B : F.Blocks)
    for (const IRInstr &I : B->Instrs)
      if (P(I))
        ++N;
  return N;
}

int countOp(const IRFunction &F, IROp Op) {
  return countInstrs(F, [Op](const IRInstr &I) { return I.Op == Op; });
}

void expectValid(const IRFunction &F) {
  auto Problems = verifyFunction(F);
  EXPECT_TRUE(Problems.empty())
      << Problems.front() << "\n"
      << F.toString();
}

/// One hand-built IR instruction.
IRInstr instr(IROp Op, std::vector<unsigned> Srcs = {}) {
  IRInstr I;
  I.Op = Op;
  I.Srcs = std::move(Srcs);
  return I;
}

IRInstr def(IROp Op, unsigned Dst, std::vector<unsigned> Srcs = {},
            int32_t Imm = 0) {
  IRInstr I = instr(Op, std::move(Srcs));
  I.HasDst = true;
  I.Dst = Dst;
  I.Imm = Imm;
  return I;
}

IRInstr branch(int Target) {
  IRInstr I = instr(IROp::Br);
  I.Target1 = Target;
  return I;
}

IRInstr condBranch(unsigned Cond, int Then, int Else) {
  IRInstr I = instr(IROp::CondBr, {Cond});
  I.Target1 = Then;
  I.Target2 = Else;
  return I;
}

/// A function of \p NumParams parameters and \p NumVRegs registers
/// with \p NumBlocks empty blocks.
std::unique_ptr<IRFunction> handBuilt(unsigned NumParams, unsigned NumVRegs,
                                      int NumBlocks) {
  auto F = std::make_unique<IRFunction>();
  F->Name = "f";
  F->NumParams = NumParams;
  F->NumVRegs = NumVRegs;
  for (int B = 0; B < NumBlocks; ++B)
    F->newBlock();
  return F;
}

TEST(SimplifyTest, FoldsConstantArithmetic) {
  auto M = irFor("int f() { return 2 + 3 * 4; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::Bin), 0) << F->toString();
  // The return value is the constant 14.
  bool Found14 = countInstrs(*F, [](const IRInstr &I) {
                   return I.Op == IROp::Const && I.Imm == 14;
                 }) == 1;
  EXPECT_TRUE(Found14) << F->toString();
}

TEST(SimplifyTest, AlgebraicIdentities) {
  auto M = irFor("int f(int x) { return (x + 0) * 1 - 0; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::Bin), 0) << F->toString();
}

TEST(SimplifyTest, SubSelfIsZero) {
  auto M = irFor("int f(int x) { return x - x; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::Bin), 0) << F->toString();
}

TEST(ConstPropTest, PropagatesAcrossBlocks) {
  auto M = irFor("int f(int c) { int a = 5; int b; "
                 "if (c) b = a + 1; else b = a + 2; return b; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  // a is constant 5; both additions fold.
  EXPECT_EQ(countOp(*F, IROp::Bin), 0) << F->toString();
}

TEST(ConstPropTest, FoldsConstantBranch) {
  auto M = irFor("int f() { if (1 < 2) return 10; return 20; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::CondBr), 0) << F->toString();
  // Only the 'return 10' path survives.
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::Const && I.Imm == 20;
            }),
            0)
      << F->toString();
}

TEST(ConstPropTest, LoopVariantNotPropagated) {
  auto M = irFor("int f(int n) { int i = 0; int s = 0;"
                 " while (i < n) { s = s + i; i = i + 1; } return s; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  // The loop must survive: i is not constant inside it.
  EXPECT_GE(countOp(*F, IROp::CondBr), 1) << F->toString();
  EXPECT_GE(countOp(*F, IROp::Bin), 2) << F->toString();

  // The first visit of the loop header ignores the unvisited back edge
  // and sees i = 0; the fixpoint must still drop that fact once the
  // back edge brings i = i + 1:
  //   b0: v1 = 0; v2 = 1; br b1
  //   b1: v3 = v1; v4 = v3 < v0; condbr v4, b2, b3
  //   b2: v1 = v1 + v2; br b1
  //   b3: ret v3
  auto Loop = handBuilt(1, 5, 4);
  Loop->block(0)->Instrs = {def(IROp::Const, 1, {}, 0),
                            def(IROp::Const, 2, {}, 1), branch(1)};
  IRInstr Lt = def(IROp::Bin, 4, {3, 0});
  Lt.BK = BinKind::Lt;
  Loop->block(1)->Instrs = {def(IROp::Copy, 3, {1}), Lt,
                            condBranch(4, 2, 3)};
  Loop->block(2)->Instrs = {def(IROp::Bin, 1, {1, 2}), branch(1)};
  Loop->block(3)->Instrs = {instr(IROp::Ret, {3})};
  propagateConstantsAndCopies(*Loop);
  const IRInstr &Header = Loop->block(1)->Instrs[0];
  EXPECT_EQ(Header.Op, IROp::Copy) << Loop->toString();
  EXPECT_EQ(Loop->block(1)->Instrs[2].Op, IROp::CondBr) << Loop->toString();
  // v1 varies, so the increment stays an addition.
  EXPECT_EQ(Loop->block(2)->Instrs[0].Op, IROp::Bin) << Loop->toString();
}

TEST(ConstPropTest, RedefiningCopySourceKillsCopyFact) {
  //   v2 = v0; print v2; v0 = v1 + v1; print v2; ret
  // The first print reads v0 through the copy; after v0 is redefined,
  // v2 still holds the old value and must be read as itself.
  auto F = handBuilt(2, 3, 1);
  F->block(0)->Instrs = {def(IROp::Copy, 2, {0}), instr(IROp::Print, {2}),
                         def(IROp::Bin, 0, {1, 1}), instr(IROp::Print, {2}),
                         instr(IROp::Ret)};
  EXPECT_TRUE(propagateConstantsAndCopies(*F));
  const auto &Instrs = F->block(0)->Instrs;
  EXPECT_EQ(Instrs[1].Srcs[0], 0u) << F->toString();
  EXPECT_EQ(Instrs[3].Srcs[0], 2u) << F->toString();
}

TEST(ConstPropTest, MeetOfDisagreeingFactsDropsThem) {
  //   b0: condbr v0, b1, b2
  //   b1: v1 = 1; v2 = 7; v3 = v0; br b3
  //   b2: v1 = 2; v2 = 7; v3 = v0; br b3
  //   b3: v4 = v1; v5 = v2; v6 = v3; ret v4
  // Both paths agree on v2 = 7 and v3 = copy of v0; they disagree on
  // v1, so the join knows nothing about it.
  auto F = handBuilt(1, 7, 4);
  F->block(0)->Instrs = {condBranch(0, 1, 2)};
  F->block(1)->Instrs = {def(IROp::Const, 1, {}, 1),
                         def(IROp::Const, 2, {}, 7), def(IROp::Copy, 3, {0}),
                         branch(3)};
  F->block(2)->Instrs = {def(IROp::Const, 1, {}, 2),
                         def(IROp::Const, 2, {}, 7), def(IROp::Copy, 3, {0}),
                         branch(3)};
  F->block(3)->Instrs = {def(IROp::Copy, 4, {1}), def(IROp::Copy, 5, {2}),
                         def(IROp::Copy, 6, {3}), instr(IROp::Ret, {4})};
  propagateConstantsAndCopies(*F);
  const auto &Join = F->block(3)->Instrs;
  EXPECT_EQ(Join[0].Op, IROp::Copy) << F->toString();
  EXPECT_EQ(Join[0].Srcs[0], 1u) << F->toString();
  EXPECT_EQ(Join[1].Op, IROp::Const) << F->toString();
  EXPECT_EQ(Join[1].Imm, 7) << F->toString();
  EXPECT_EQ(Join[2].Op, IROp::Copy) << F->toString();
  EXPECT_EQ(Join[2].Srcs[0], 0u) << F->toString();
}

TEST(CSETest, RepeatedGlobalLoadCollapses) {
  auto M = irFor("int g;\nint f() { return g + g; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::LdG), 1) << F->toString();
}

TEST(CSETest, CallKillsGlobalLoad) {
  auto M = irFor("int g;\nvoid h() { g = 1; }\n"
                 "int f() { int a = g; h(); return a + g; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::LdG), 2) << F->toString();
}

TEST(CSETest, StoreToLoadForwarding) {
  auto M = irFor("int g;\nint f(int x) { g = x; return g; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  // The load after the store is forwarded away.
  EXPECT_EQ(countOp(*F, IROp::LdG), 0) << F->toString();
  EXPECT_EQ(countOp(*F, IROp::StG), 1) << F->toString();
}

TEST(CSETest, StPtrKillsGlobalLoads) {
  auto M = irFor("int g;\nint f(int *p, int x) "
                 "{ int a = g; *p = x; return a + g; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::LdG), 2) << F->toString();
}

TEST(CSETest, RepeatedPureExprCollapses) {
  auto M = irFor("int f(int a, int b) { return (a * b) + (a * b); }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countInstrs(*F, [](const IRInstr &I) {
              return I.Op == IROp::Bin && I.BK == BinKind::Mul;
            }),
            1)
      << F->toString();
}

TEST(DCETest, DeadPureCodeRemoved) {
  auto M = irFor("int f(int a) { int unused = a * 99; return a; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::Bin), 0) << F->toString();
}

TEST(DCETest, CallWithDeadResultKept) {
  auto M = irFor("int g;\nint h() { g = g + 1; return g; }\n"
                 "int f() { h(); return 0; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::Call), 1) << F->toString();
}

TEST(DCETest, StoresAreNeverDead) {
  auto M = irFor("int g;\nvoid f(int x) { g = x; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::StG), 1) << F->toString();
}

TEST(DeadStoreTest, OverwrittenStoreRemoved) {
  auto M = irFor("int g;\nvoid f(int x) { g = x; g = x + 1; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::StG), 1) << F->toString();
}

TEST(DeadStoreTest, LoadObservesStore) {
  auto M = irFor("int g;\nint f(int x) { g = x; int a = g;"
                 " g = x + 1; return a; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  // The load observes the first store, so dead-store elimination must
  // not touch it on observation grounds; after store-to-load forwarding
  // at least the final store survives.
  EXPECT_GE(countOp(*F, IROp::StG), 1) << F->toString();
}

TEST(DeadStoreTest, CallObservesStore) {
  auto M = irFor("int g;\nint peek() { return g; }\n"
                 "void f(int x) { g = x; peek(); g = x + 1; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  EXPECT_EQ(countOp(*F, IROp::StG), 2) << F->toString();
}

TEST(DeadStoreTest, PointerReadObservesEscapedSlot) {
  auto M = irFor("int use(int *p) { return *p; }\n"
                 "int f(int x) { int a = 0; int *p = &a;\n"
                 "  a = x; int r = use(p); a = x + 1;\n"
                 "  return r + a; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  // Both stores to the escaped slot must survive (the call reads it).
  EXPECT_GE(countOp(*F, IROp::StSlot), 2) << F->toString();
}

TEST(LICMTest, InvariantArithmeticHoisted) {
  auto M = irFor("int f(int n, int k) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i = i + 1)\n"
                 "    s = s + (k * 31 + 7);\n" // Invariant subexpression.
                 "  return s;\n"
                 "}\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  // The k*31+7 computation must not sit inside the loop: the loop body
  // (blocks with depth > 0) contains no Mul.
  CFGInfo CFG(*F);
  for (const auto &B : F->Blocks) {
    if (!CFG.isReachable(B->Id) || CFG.loopDepth(B->Id) == 0)
      continue;
    for (const IRInstr &I : B->Instrs)
      EXPECT_FALSE(I.Op == IROp::Bin && I.BK == BinKind::Mul)
          << F->toString();
  }
}

TEST(LICMTest, ConstantsLeaveLoops) {
  auto M = irFor("int f(int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i = i + 1) s = s + 12345;\n"
                 "  return s;\n"
                 "}\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  CFGInfo CFG(*F);
  for (const auto &B : F->Blocks) {
    if (!CFG.isReachable(B->Id) || CFG.loopDepth(B->Id) == 0)
      continue;
    for (const IRInstr &I : B->Instrs)
      EXPECT_FALSE(I.Op == IROp::Const && I.Imm == 12345)
          << F->toString();
  }
}

TEST(LICMTest, VariantComputationStays) {
  auto M = irFor("int f(int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i = i + 1) s = s + i * i;\n"
                 "  return s;\n"
                 "}\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  // i*i depends on the induction variable: it must remain in the loop.
  CFGInfo CFG(*F);
  bool MulInLoop = false;
  for (const auto &B : F->Blocks) {
    if (!CFG.isReachable(B->Id) || CFG.loopDepth(B->Id) == 0)
      continue;
    for (const IRInstr &I : B->Instrs)
      MulInLoop |= I.Op == IROp::Bin && I.BK == BinKind::Mul;
  }
  EXPECT_TRUE(MulInLoop) << F->toString();
}

TEST(LICMTest, LoadsAreNotHoisted) {
  // g may change inside the loop (through the call): its load must not
  // be hoisted.
  auto M = irFor("int g;\nvoid bump() { g = g + 1; }\n"
                 "int f(int n) {\n"
                 "  int s = 0;\n"
                 "  for (int i = 0; i < n; i = i + 1) { bump();"
                 " s = s + g; }\n"
                 "  return s;\n"
                 "}\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, noLocalPromotion());
  expectValid(*F);
  CFGInfo CFG(*F);
  bool LoadInLoop = false;
  for (const auto &B : F->Blocks) {
    if (!CFG.isReachable(B->Id) || CFG.loopDepth(B->Id) == 0)
      continue;
    for (const IRInstr &I : B->Instrs)
      LoadInLoop |= I.Op == IROp::LdG;
  }
  EXPECT_TRUE(LoadInLoop) << F->toString();
}

TEST(SimplifyCFGTest, UnreachableBlocksRemoved) {
  auto M = irFor("int f() { return 1; return 2; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(F->Blocks.size(), 1u) << F->toString();
}

TEST(SimplifyCFGTest, StraightLineBlocksMerged) {
  auto M = irFor("int f(int a) { int b = a + 1; { int c = b + 2;"
                 " return c; } }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  EXPECT_EQ(F->Blocks.size(), 1u) << F->toString();
}

TEST(GlobalPromoteTest, HotGlobalPromotedInLoop) {
  auto M = irFor("int g;\n"
                 "int f(int n) { int i = 0;"
                 " while (i < n) { g = g + i; i = i + 1; } return g; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  // Inside the loop there must be no LdG/StG left; only the entry load
  // and exit store remain.
  EXPECT_LE(countOp(*F, IROp::LdG), 1) << F->toString();
  EXPECT_LE(countOp(*F, IROp::StG), 1) << F->toString();
}

TEST(GlobalPromoteTest, CallsForceSynchronization) {
  auto M = irFor("int g;\nvoid h() { g = g + 1; }\n"
                 "int f(int n) { int i = 0;\n"
                 "  while (i < n) { g = g + i; h(); i = i + 1; }\n"
                 "  return g; }\n");
  IRFunction *F = M->findFunction("f");
  optimizeFunction(*F, OptOptions());
  expectValid(*F);
  // With a call in the loop, either promotion was rejected or stores
  // and reloads bracket the call; in both cases LdG/StG remain in the
  // loop.
  EXPECT_GE(countOp(*F, IROp::LdG) + countOp(*F, IROp::StG), 2)
      << F->toString();
}

TEST(GlobalPromoteTest, SkipSetRespected) {
  auto M = irFor("int g;\n"
                 "int f(int n) { int i = 0;"
                 " while (i < n) { g = g + i; i = i + 1; } return g; }\n");
  IRFunction *F = M->findFunction("f");
  OptOptions Options;
  Options.SkipGlobals.insert("g");
  optimizeFunction(*F, Options);
  expectValid(*F);
  // g stays in memory: one load and one store per iteration.
  EXPECT_GE(countOp(*F, IROp::LdG) + countOp(*F, IROp::StG), 2)
      << F->toString();
}

TEST(OptPipelineTest, PreservesVerifierOnLargerProgram) {
  auto M = irFor(
      "int depth;\nint best;\n"
      "int eval(int p) { return p * 3 % 17; }\n"
      "int search(int p, int d) {\n"
      "  if (d == 0) return eval(p);\n"
      "  int i = 0; int v = -1000;\n"
      "  while (i < 4) {\n"
      "    int s = search(p + i, d - 1);\n"
      "    if (s > v) v = s;\n"
      "    i = i + 1;\n"
      "  }\n"
      "  best = v;\n"
      "  return v;\n"
      "}\n"
      "int main() { depth = 3; print(search(1, depth)); return 0; }\n");
  OptOptions Options;
  for (auto &F : M->Functions) {
    optimizeFunction(*F, Options);
    expectValid(*F);
  }
}

} // namespace
