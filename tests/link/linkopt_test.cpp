//===- linkopt_test.cpp - Link-time register allocation tests -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "link/LinkOpt.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace ipra;

namespace {

struct WallRun {
  RunResult Base;
  RunResult Wall;
  LinkAllocStats Stats;
};

/// Compiles at the baseline and Wall-style, runs both, expects success.
WallRun runBoth(const std::vector<SourceFile> &Sources,
                const LinkAllocOptions &Options = LinkAllocOptions()) {
  WallRun Out;
  BuildResult Base = Pipeline(PipelineConfig::baseline()).build(Sources);
  EXPECT_TRUE(Base.ok()) << Base.text();
  Out.Base = runExecutable(Base.Exe);
  EXPECT_TRUE(Out.Base.Halted) << Out.Base.Trap;

  auto Wall = compileWallStyle(Sources, Options);
  EXPECT_TRUE(Wall.Success) << Wall.ErrorText;
  Out.Stats = Wall.LinkStats;
  Out.Wall = runExecutable(Wall.Exe, 500'000'000);
  EXPECT_TRUE(Out.Wall.Halted) << Out.Wall.Trap;
  EXPECT_EQ(Out.Wall.Output, Out.Base.Output);
  EXPECT_EQ(Out.Wall.ExitCode, Out.Base.ExitCode);
  return Out;
}

TEST(LinkOptTest, PromotesHotGlobalAndWins) {
  const char *Src =
      "int g;\n"
      "void bump(int d) { g = g + d; }\n"
      "int main() {\n"
      "  for (int i = 0; i < 100; i = i + 1) bump(i);\n"
      "  print(g);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"prog.mc", Src}});
  ASSERT_EQ(R.Stats.Promoted.size(), 1u);
  EXPECT_EQ(R.Stats.Promoted[0].first, "g");
  EXPECT_GT(R.Stats.RewrittenLoads + R.Stats.RewrittenStores, 0);
  EXPECT_GT(R.Stats.RemovedInstrs, 0);
  EXPECT_LT(R.Wall.Stats.Cycles, R.Base.Stats.Cycles);
  EXPECT_LT(R.Wall.Stats.SingletonRefs, R.Base.Stats.SingletonRefs);
}

TEST(LinkOptTest, StubLoadsInitialValue) {
  const char *Src = "int g = 41;\n"
                    "int main() { print(g + 1); g = 7; print(g); return 0; }\n";
  auto R = runBoth({{"prog.mc", Src}});
  ASSERT_EQ(R.Stats.Promoted.size(), 1u);
  EXPECT_EQ(R.Base.Output, "42\n7\n");
}

TEST(LinkOptTest, AddressTakenGlobalNotPromoted) {
  const char *Src =
      "int g;\n"
      "void bump(int *p) { *p = *p + 1; }\n"
      "int main() {\n"
      "  for (int i = 0; i < 10; i = i + 1) { bump(&g); g = g + 1; }\n"
      "  print(g);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"prog.mc", Src}});
  for (const auto &[Name, Reg] : R.Stats.Promoted)
    EXPECT_NE(Name, "g");
}

TEST(LinkOptTest, ArraysNotPromoted) {
  const char *Src =
      "int arr[4];\n"
      "int main() {\n"
      "  for (int i = 0; i < 4; i = i + 1) arr[i] = i;\n"
      "  print(arr[0] + arr[3]);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"prog.mc", Src}});
  EXPECT_TRUE(R.Stats.Promoted.empty());
}

TEST(LinkOptTest, StaticCountsPickTheBusiestGlobals) {
  // hot is referenced from three procedures, cold from one; with
  // MaxGlobals=1 the linker must pick hot. Distinct procedures keep the
  // level-2 optimizer from collapsing the reference sites.
  const char *Src =
      "int hot; int cold;\n"
      "int a(int x) { hot = hot + x; return hot; }\n"
      "int b(int x) { hot = hot * x; return hot; }\n"
      "int c(int x) { hot = hot - x; return hot; }\n"
      "int d(int x) { cold = x; return cold; }\n"
      "int main() {\n"
      "  print(a(1) + b(2) + c(3) + d(4));\n"
      "  return 0;\n"
      "}\n";
  LinkAllocOptions Options;
  Options.MaxGlobals = 1;
  auto R = runBoth({{"prog.mc", Src}}, Options);
  ASSERT_EQ(R.Stats.Promoted.size(), 1u);
  EXPECT_EQ(R.Stats.Promoted[0].first, "hot");
}

TEST(LinkOptTest, BranchTargetsSurviveThePeephole) {
  // Promoted accesses inside nested control flow: deleting the dead
  // ADDRGs shifts every branch target in the function.
  const char *Src =
      "int n;\n"
      "int collatz(int x) {\n"
      "  int steps = 0;\n"
      "  while (x != 1) {\n"
      "    if (x % 2 == 0) x = x / 2;\n"
      "    else x = 3 * x + 1;\n"
      "    n = n + 1;\n"
      "    steps = steps + 1;\n"
      "  }\n"
      "  return steps;\n"
      "}\n"
      "int main() {\n"
      "  int total = 0;\n"
      "  for (int i = 1; i <= 30; i = i + 1) total = total + collatz(i);\n"
      "  print(total);\n"
      "  print(n);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"prog.mc", Src}});
  ASSERT_EQ(R.Stats.Promoted.size(), 1u);
  EXPECT_GT(R.Stats.RemovedInstrs, 0);
}

TEST(LinkOptTest, FunctionPointerGlobalPromoted) {
  // A 'func' global holds a code address; promotion keeps the address
  // in a register and indirect calls still dispatch through it.
  const char *Src =
      "int add1(int x) { return x + 1; }\n"
      "int dbl(int x) { return x * 2; }\n"
      "func op = &add1;\n"
      "int main() {\n"
      "  int r = op(10);\n"
      "  op = &dbl;\n"
      "  r = r + op(10);\n"
      "  print(r);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"prog.mc", Src}});
  EXPECT_EQ(R.Base.Output, "31\n");
}

TEST(LinkOptTest, MaxGlobalsRespected) {
  const char *Src =
      "int a; int b; int c; int d;\n"
      "int main() {\n"
      "  a = 1; b = 2; c = 3; d = 4;\n"
      "  print(a + b + c + d);\n"
      "  return 0;\n"
      "}\n";
  LinkAllocOptions Options;
  Options.MaxGlobals = 2;
  auto R = runBoth({{"prog.mc", Src}}, Options);
  EXPECT_EQ(R.Stats.Promoted.size(), 2u);
}

TEST(LinkOptTest, CrossModuleGlobalsPromote) {
  const char *Lib =
      "int counter;\n"
      "int bump(int x) { counter = counter + x; return counter; }\n";
  const char *Main =
      "int counter;\n"
      "int bump(int x);\n"
      "int main() {\n"
      "  int r = 0;\n"
      "  for (int i = 0; i < 50; i = i + 1) r = r + bump(i);\n"
      "  print(r);\n"
      "  print(counter);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"lib.mc", Lib}, {"main.mc", Main}});
  ASSERT_EQ(R.Stats.Promoted.size(), 1u);
  EXPECT_EQ(R.Stats.Promoted[0].first, "counter");
  EXPECT_LT(R.Wall.Stats.Cycles, R.Base.Stats.Cycles);
}

TEST(LinkOptTest, ModulePrivateStaticsPromote) {
  const char *M1 = "static int s;\n"
                   "int tick() { s = s + 1; return s; }\n";
  const char *Main =
      "int tick();\n"
      "int main() {\n"
      "  int r = 0;\n"
      "  for (int i = 0; i < 20; i = i + 1) r = tick();\n"
      "  print(r);\n"
      "  return 0;\n"
      "}\n";
  auto R = runBoth({{"m1.mc", M1}, {"main.mc", Main}});
  bool FoundStatic = false;
  for (const auto &[Name, Reg] : R.Stats.Promoted)
    FoundStatic |= Name == "m1.mc:s";
  EXPECT_TRUE(FoundStatic) << "promoted " << R.Stats.Promoted.size();
}

TEST(LinkOptTest, ProfileCorrectsStaticCountBlindness) {
  // cold has more SITES (picked by static counts) but hot has more
  // EXECUTIONS; with a one-register budget the profile must flip the
  // choice - the frequency information Wall's linker otherwise lacks.
  const char *Src =
      "int hot; int cold;\n"
      "void rare() { cold = 1; cold = cold + 2; cold = cold + 3;"
      " cold = cold * 2; }\n"
      "int often(int x) { hot = hot + x; return hot; }\n"
      "int main() {\n"
      "  rare();\n"
      "  int r = 0;\n"
      "  for (int i = 0; i < 200; i = i + 1) r = r + often(i);\n"
      "  print(r); print(cold);\n"
      "  return 0;\n"
      "}\n";
  std::vector<SourceFile> Sources = {{"prog.mc", Src}};

  LinkAllocOptions StaticOnly;
  StaticOnly.MaxGlobals = 1;
  auto R1 = runBoth(Sources, StaticOnly);
  ASSERT_EQ(R1.Stats.Promoted.size(), 1u);
  EXPECT_EQ(R1.Stats.Promoted[0].first, "cold");

  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  LinkAllocOptions WithProfile;
  WithProfile.MaxGlobals = 1;
  WithProfile.InvocationCounts = &Base.Profile.CallCounts;
  auto R2 = runBoth(Sources, WithProfile);
  ASSERT_EQ(R2.Stats.Promoted.size(), 1u);
  EXPECT_EQ(R2.Stats.Promoted[0].first, "hot");
  EXPECT_LT(R2.Wall.Stats.Cycles, R1.Wall.Stats.Cycles);
}

TEST(LinkOptTest, StubLoadOfUndefinedGlobalFails) {
  ObjectFile Obj;
  Obj.Module = "m";
  ObjFunction Main;
  Main.QualName = "main";
  MInstr Ret;
  Ret.Op = MOp::BV;
  Ret.A = MOperand::makeReg(pr32::RP);
  Main.Code.push_back(std::move(Ret));
  Obj.Functions.push_back(std::move(Main));
  auto R = linkObjects({Obj}, {{"nosuch", 13}});
  EXPECT_FALSE(R.Success);
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors[0].find("nosuch"), std::string::npos);
}

TEST(LinkOptTest, NoCooperationStaysSound) {
  // Without a reserved bank the rewriter may only use registers it can
  // PROVE no function touches; whatever it finds, behaviour must be
  // preserved and the promotion count bounded by the proof.
  const char *Src =
      "int g; int h;\n"
      "int work(int n) {\n"
      "  g = g + n;\n"
      "  h = h + g;\n"
      "  return g + h;\n"
      "}\n"
      "int main() {\n"
      "  int r = 0;\n"
      "  for (int i = 0; i < 40; i = i + 1) r = r + work(i);\n"
      "  print(r); print(g); print(h);\n"
      "  return 0;\n"
      "}\n";
  LinkAllocOptions Options;
  Options.ReserveBank = 0; // No compiler cooperation.
  auto R = runBoth({{"prog.mc", Src}}, Options);
  EXPECT_LE(static_cast<int>(R.Stats.Promoted.size()),
            R.Stats.FreeRegisters);
}

//===----------------------------------------------------------------------===//
// AddressScan dataflow corners, on hand-built machine code.
//===----------------------------------------------------------------------===//

MInstr mkAddrg(unsigned Dst, const std::string &Sym) {
  MInstr I;
  I.Op = MOp::ADDRG;
  I.A = MOperand::makeReg(Dst);
  I.B = MOperand::makeSym(Sym);
  return I;
}

MInstr mkLoad(unsigned Dst, unsigned Base, MemClass MC) {
  MInstr I;
  I.Op = MOp::LDW;
  I.MC = MC;
  I.A = MOperand::makeReg(Dst);
  I.B = MOperand::makeReg(Base);
  I.C = MOperand::makeImm(0);
  return I;
}

MInstr mkMov(unsigned Dst, unsigned Src) {
  MInstr I;
  I.Op = MOp::MOV;
  I.A = MOperand::makeReg(Dst);
  I.B = MOperand::makeReg(Src);
  return I;
}

MInstr mkCb(unsigned Reg, int Target) {
  MInstr I;
  I.Op = MOp::CB;
  I.CC = Cond::EQ;
  I.A = MOperand::makeReg(Reg);
  I.B = MOperand::makeImm(0);
  I.C = MOperand::makeLabel(Target);
  return I;
}

MInstr mkB(int Target) {
  MInstr I;
  I.Op = MOp::B;
  I.A = MOperand::makeLabel(Target);
  return I;
}

MInstr mkRet() {
  MInstr I;
  I.Op = MOp::BV;
  I.A = MOperand::makeReg(pr32::RP);
  return I;
}

/// Wraps a code sequence plus scalar globals into an object vector.
std::vector<ObjectFile>
makeObjects(std::vector<MInstr> Code,
            const std::vector<std::string> &GlobalNames) {
  ObjectFile Obj;
  Obj.Module = "m";
  for (const std::string &Name : GlobalNames) {
    ObjGlobal G;
    G.QualName = Name;
    G.SizeWords = 1;
    Obj.Globals.push_back(std::move(G));
  }
  ObjFunction F;
  F.QualName = "f";
  F.Code = std::move(Code);
  Obj.Functions.push_back(std::move(F));
  return {Obj};
}

TEST(AddressScanTest, EscapeDetectedAcrossJoinPoint) {
  // One path materializes &g into r19, the other leaves r19 as data;
  // after the join r19 is passed to a call. A block-local scan sees
  // nothing wrong in the join block - the MAY facts must carry the
  // possible address across the edge.
  std::vector<MInstr> Code;
  Code.push_back(mkCb(20, 3));        // 0: if (r20==0) goto 3
  Code.push_back(mkAddrg(19, "g"));   // 1: r19 = &g
  Code.push_back(mkB(4));             // 2: goto 4
  Code.push_back(mkMov(19, 21));      // 3: r19 = r21 (plain data)
  Code.push_back(mkMov(23, 19));      // 4: arg0 = r19   <- escape!
  {
    MInstr Call;
    Call.Op = MOp::BL;
    Call.A = MOperand::makeSym("f");
    Call.NumArgs = 1;
    Code.push_back(std::move(Call));  // 5: call f(r19)
  }
  Code.push_back(mkRet());            // 6

  auto Objects = makeObjects(std::move(Code), {"g"});
  LinkAllocOptions Options;
  Options.ReserveBank = pr32::maskOf(13);
  auto Stats = promoteGlobalsAtLinkTime(Objects, Options);
  EXPECT_TRUE(Stats.Promoted.empty())
      << "address escaped through a join but g was promoted";
}

TEST(AddressScanTest, HoistedAddressStillCountsAndRewrites) {
  // The loop-invariant ADDRG sits in a preheader; the access in the
  // loop body must still be recognized (MUST fact across the edge),
  // rewritten, and the now-dead ADDRG deleted with targets remapped.
  std::vector<MInstr> Code;
  Code.push_back(mkAddrg(19, "g"));          // 0: preheader: r19 = &g
  Code.push_back(mkLoad(20, 19, MemClass::GlobalScalar)); // 1: loop: r20 = g
  {
    MInstr Add;                              // 2: r21 = r21 + r20
    Add.Op = MOp::ADD;
    Add.A = MOperand::makeReg(21);
    Add.B = MOperand::makeReg(21);
    Add.C = MOperand::makeReg(20);
    Code.push_back(std::move(Add));
  }
  Code.push_back(mkCb(21, 1));               // 3: loop back edge
  Code.push_back(mkRet());                   // 4

  auto Objects = makeObjects(std::move(Code), {"g"});
  LinkAllocOptions Options;
  Options.ReserveBank = pr32::maskOf(13);
  auto Stats = promoteGlobalsAtLinkTime(Objects, Options);
  ASSERT_EQ(Stats.Promoted.size(), 1u);
  EXPECT_EQ(Stats.RewrittenLoads, 1);
  EXPECT_EQ(Stats.RemovedInstrs, 1);

  // The rewritten function: LDW became MOV from r13, the ADDRG is gone,
  // and the back edge targets the (shifted) loop head.
  const auto &F = Objects[0].Functions[0].Code;
  ASSERT_EQ(F.size(), 4u);
  EXPECT_EQ(F[0].Op, MOp::MOV);
  EXPECT_EQ(F[0].B.RegNo, Stats.Promoted[0].second);
  ASSERT_EQ(F[2].Op, MOp::CB);
  EXPECT_EQ(F[2].C.LabelId, 0);
}

TEST(AddressScanTest, ConflictingMustFactsEscapeBothGlobals) {
  // r19 holds &g on one path and &h on the other; the join-block access
  // cannot be attributed, so both globals must be poisoned (escaped),
  // not silently promoted and not a whole-program abort.
  std::vector<MInstr> Code;
  Code.push_back(mkCb(20, 3));        // 0
  Code.push_back(mkAddrg(19, "g"));   // 1
  Code.push_back(mkB(4));             // 2
  Code.push_back(mkAddrg(19, "h"));   // 3
  Code.push_back(mkLoad(21, 19, MemClass::GlobalScalar)); // 4: which one?
  Code.push_back(mkRet());            // 5

  auto Objects = makeObjects(std::move(Code), {"g", "h"});
  LinkAllocOptions Options;
  Options.ReserveBank = pr32::maskOf(13) | pr32::maskOf(14);
  auto Stats = promoteGlobalsAtLinkTime(Objects, Options);
  EXPECT_FALSE(Stats.OpaqueAccessSeen);
  EXPECT_TRUE(Stats.Promoted.empty());
}

TEST(AddressScanTest, UnknownBaseGlobalAccessAbortsEverything) {
  // A global-scalar access through a register no ADDRG ever defined:
  // the scan cannot tell WHICH global, so promotion is abandoned.
  std::vector<MInstr> Code;
  Code.push_back(mkLoad(21, 22, MemClass::GlobalScalar)); // 0: mystery base
  Code.push_back(mkAddrg(19, "g"));                       // 1
  Code.push_back(mkLoad(20, 19, MemClass::GlobalScalar)); // 2: clean
  Code.push_back(mkRet());                                // 3

  auto Objects = makeObjects(std::move(Code), {"g"});
  LinkAllocOptions Options;
  Options.ReserveBank = pr32::maskOf(13);
  auto Stats = promoteGlobalsAtLinkTime(Objects, Options);
  EXPECT_TRUE(Stats.OpaqueAccessSeen);
  EXPECT_TRUE(Stats.Promoted.empty());
}

TEST(AddressScanTest, CallClobbersAddressFacts) {
  // The address lives in a caller-saves register across a call: the
  // post-call access must not be treated as a known clean access.
  std::vector<MInstr> Code;
  Code.push_back(mkAddrg(19, "g"));   // 0: r19 = &g (caller-saves)
  {
    MInstr Call;
    Call.Op = MOp::BL;
    Call.A = MOperand::makeSym("f");
    Code.push_back(std::move(Call));  // 1: call clobbers r19
  }
  Code.push_back(mkLoad(20, 19, MemClass::GlobalScalar)); // 2: stale base
  Code.push_back(mkRet());            // 3

  auto Objects = makeObjects(std::move(Code), {"g"});
  LinkAllocOptions Options;
  Options.ReserveBank = pr32::maskOf(13);
  auto Stats = promoteGlobalsAtLinkTime(Objects, Options);
  // The stale access reads *something* global through an unknown base.
  EXPECT_TRUE(Stats.OpaqueAccessSeen || Stats.Promoted.empty());
}

} // namespace
