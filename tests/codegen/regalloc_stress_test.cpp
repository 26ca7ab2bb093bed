//===- regalloc_stress_test.cpp - Allocator stress under tight pools ------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "TestUtil.h"

#include "codegen/CodeGen.h"
#include "link/Linker.h"
#include "opt/Passes.h"
#include "sim/Simulator.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <optional>

using namespace ipra;
using ipra::test::compileToIR;

namespace {

/// A function with ~N values live across a call, executed to check the
/// result under the given directives.
std::string pressureSource(int N) {
  std::string Src = "int sink(int x) { return x; }\n"
                    "int f(int a) {\n";
  for (int I = 0; I < N; ++I)
    Src += "  int v" + std::to_string(I) + " = a * " +
           std::to_string(I + 2) + " + " + std::to_string(I) + ";\n";
  Src += "  sink(a);\n  int s = 0;\n";
  for (int I = 0; I < N; ++I)
    Src += "  s = s + v" + std::to_string(I) + " * " +
           std::to_string(I + 1) + ";\n";
  Src += "  return s;\n}\n"
         "int main() { print(f(3)); return 0; }\n";
  return Src;
}

/// Compiles \p Source with \p DirF for f and default directives
/// elsewhere, links and runs it, and returns the printed value; nullopt
/// if code generation failed.
std::optional<int32_t> tryRunWith(const std::string &Source,
                                  const ProcDirectives &DirF) {
  DiagnosticEngine Diags;
  auto M = compileToIR("t.mc", Source, Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  optimizeModule(*M, OptOptions());

  ObjectFile Obj;
  Obj.Module = "t.mc";
  for (const IRGlobal &G : M->Globals)
    Obj.Globals.push_back(
        ObjGlobal{G.qualifiedName(), G.SizeWords, G.Init, G.FuncInit});
  for (auto &F : M->Functions) {
    ProcDirectives Dir = F->Name == "f" ? DirF : ProcDirectives();
    CodeGenResult CG = generateCode(*M, *F, Dir);
    if (!CG.Success)
      return std::nullopt;
    Obj.Functions.push_back(std::move(CG.Obj));
  }
  auto Linked = linkObjects({Obj});
  EXPECT_TRUE(Linked.Success);
  auto R = runExecutable(Linked.Exe, 10'000'000);
  EXPECT_TRUE(R.Halted) << R.Trap;
  // Parse the printed value.
  return static_cast<int32_t>(std::atoll(R.Output.c_str()));
}

int32_t runWith(const std::string &Source, const ProcDirectives &DirF) {
  std::optional<int32_t> Value = tryRunWith(Source, DirF);
  EXPECT_TRUE(Value) << "code generation failed";
  return Value.value_or(INT32_MIN);
}

class PressureTest : public ::testing::TestWithParam<int> {};

TEST_P(PressureTest, NarrowCalleePoolStillCorrect) {
  // A cluster root whose CALLEE set was narrowed to two registers: the
  // allocator must spill its way to a correct program regardless of
  // pressure.
  std::string Src = pressureSource(GetParam());
  int32_t Expected = runWith(Src, ProcDirectives());

  ProcDirectives Narrow;
  Narrow.Callee = pr32::maskOf(3) | pr32::maskOf(4);
  Narrow.IsClusterRoot = true;
  Narrow.MSpill = pr32::maskOf(5);
  EXPECT_EQ(runWith(Src, Narrow), Expected);

  // Promoted registers shrink the pool further.
  ProcDirectives Reserved = Narrow;
  for (unsigned R = 13; R <= 18; ++R) {
    PromotedGlobal P;
    P.QualName = "phantom" + std::to_string(R);
    P.Reg = R;
    P.IsEntry = false;
    P.WebModifies = false;
    Reserved.Promoted.push_back(std::move(P));
  }
  EXPECT_EQ(runWith(Src, Reserved), Expected);

  // A tight caller-saves budget on top (§7.6.2).
  ProcDirectives Budgeted = Narrow;
  Budgeted.SelfCallerBudget =
      pr32::maskOf(19) | pr32::maskOf(23) | pr32::maskOf(28);
  EXPECT_EQ(runWith(Src, Budgeted), Expected);
}

INSTANTIATE_TEST_SUITE_P(Pressure, PressureTest,
                         ::testing::Values(4, 12, 20, 28));

// Six values live around a loop that calls sink(i), under a two-register
// CALLEE set and a two-register caller-saves budget: an instruction's
// spill temps (reloads of spilled values, loop-carried across the call)
// can crowd each other out. A spill temp is never spilled, so allocation
// either colors the temps first and converges or fails cleanly; it must
// not spill temps into more temps round after round.
TEST(RegAllocSpillTempTest, UncolorableTempNeverSpills) {
  std::string Src = "int sink(int x) { return x; }\n"
                    "int f(int a) {\n";
  for (int I = 0; I < 6; ++I)
    Src += "  int v" + std::to_string(I) + " = a + " + std::to_string(I) +
           ";\n";
  Src += "  int i = 0;\n"
         "  while (i < a) {\n"
         "    sink(i);\n";
  for (int I = 0; I < 6; ++I)
    Src += "    v" + std::to_string(I) + " = v" + std::to_string(I) +
           " * 3 + v" + std::to_string((I + 1) % 6) + ";\n";
  Src += "    i = i + 1;\n"
         "  }\n"
         "  return v0 + v1 + v2 + v3 + v4 + v5;\n"
         "}\n"
         "int main() { print(f(4)); return 0; }\n";
  int32_t Expected = runWith(Src, ProcDirectives());

  ProcDirectives Tight;
  Tight.Callee = pr32::maskOf(3) | pr32::maskOf(4);
  Tight.Caller = Tight.SelfCallerBudget = pr32::maskOf(19) | pr32::maskOf(20);
  std::optional<int32_t> Value = tryRunWith(Src, Tight);
  if (Value) {
    EXPECT_EQ(*Value, Expected);
  }
}

// paopt's stallPass under a two-register CALLEE set: its loop keeps
// values live across calls and redefines them, so the same pairs
// interfere at many points, and allocation needs two spill rounds (the
// second spills ranges the first round's spill code crowded out). The
// spill count, the round count and the final code are pinned: the
// allocator's data structures may change, its decisions may not.
TEST(RegAllocPinTest, TwoSpillRoundsColorAsPinned) {
  std::unique_ptr<IRModule> M;
  for (const SourceFile &S : bench::loadProgram("paopt"))
    if (S.Name == "peep.mc") {
      DiagnosticEngine Diags;
      M = compileToIR(S.Name, S.Text, Diags);
      ASSERT_TRUE(M) << Diags.renderAll();
    }
  ASSERT_TRUE(M);
  optimizeModule(*M, OptOptions());
  ProcDirectives Dir;
  Dir.Callee = pr32::maskOf(3) | pr32::maskOf(4);
  CodeGenResult CG = generateCode(*M, *M->findFunction("stallPass"), Dir);
  ASSERT_TRUE(CG.Success);
  std::string Code;
  for (const MInstr &I : CG.Obj.Code)
    Code += I.toString() + "\n";
  EXPECT_EQ(CG.RA.SpillCount, 6u);
  EXPECT_EQ(CG.RA.Rounds, 3u);
  EXPECT_EQ(CG.Frame.FrameWords, 8);
  EXPECT_EQ(hashHex(Code), "03a9ea55a7a5df3b") << Code;
}

} // namespace
