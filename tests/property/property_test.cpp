//===- property_test.cpp - Property-based invariant suites ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Two property families, both parameterized over seeds:
///
///  1. Differential execution: random MiniC programs must behave
///     identically at every analyzer configuration (the master safety
///     property of interprocedural register allocation).
///  2. Analyzer invariants: random call graphs must yield webs,
///     colorings, clusters, and register sets satisfying the §4
///     correctness conditions (checked by the check* helpers).
///
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "analysis/PointsTo.h"
#include "core/Analyzer.h"
#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "ir/IRGen.h"
#include "ir/Interp.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace ipra;
using ipra::test::generateRandomProgram;

namespace {

//===----------------------------------------------------------------------===//
// Family 1: differential execution of random programs.
//===----------------------------------------------------------------------===//

class DifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialTest, AllConfigsBehaveIdentically) {
  auto Sources = generateRandomProgram(GetParam());

  BuildResult BaseB = Pipeline(PipelineConfig::baseline()).build(Sources);
  ASSERT_TRUE(BaseB.ok()) << BaseB.text();
  RunResult Base = runExecutable(BaseB.Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap << (Base.OutOfFuel ? " (fuel)" : "");

  ProfileData Profile = Base.Profile;
  struct Named {
    const char *Name;
    PipelineConfig Config;
  };
  std::vector<Named> Configs = {
      {"A", PipelineConfig::configA()}, {"B", PipelineConfig::configB()},
      {"C", PipelineConfig::configC()}, {"D", PipelineConfig::configD()},
      {"E", PipelineConfig::configE()}, {"F", PipelineConfig::configF()},
  };
  // Also stress the §7.6.2 extensions.
  PipelineConfig Extended = PipelineConfig::configC();
  Extended.RelaxWebAvail = true;
  Extended.ImprovedFreeSets = true;
  Configs.push_back({"C+ext", Extended});
  PipelineConfig WithCSP = PipelineConfig::configC();
  WithCSP.CallerSavePropagation = true;
  Configs.push_back({"C+csp", WithCSP});
  PipelineConfig WithSplit = PipelineConfig::configC();
  WithSplit.SplitSparseWebs = true;
  Configs.push_back({"C+split", WithSplit});
  PipelineConfig WithMerge = PipelineConfig::configC();
  WithMerge.RemergeWebs = true;
  Configs.push_back({"C+merge", WithMerge});
  PipelineConfig WithBoth = PipelineConfig::configC();
  WithBoth.SplitSparseWebs = true;
  WithBoth.RemergeWebs = true;
  Configs.push_back({"C+split+merge", WithBoth});

  for (const Named &N : Configs) {
    BuildResult B = Pipeline(N.Config).build(Sources, &Profile);
    ASSERT_TRUE(B.ok()) << "config " << N.Name << ": " << B.text();
    RunResult R = runExecutable(B.Exe);
    ASSERT_TRUE(R.Halted) << "config " << N.Name << ": " << R.Trap;
    ASSERT_EQ(R.Output, Base.Output) << "config " << N.Name;
    ASSERT_EQ(R.ExitCode, Base.ExitCode) << "config " << N.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range(1u, 101u));

/// The [Wall 86]-style link-time allocator rewrites finished machine
/// code with no IR-level information; random programs (with aliasing,
/// arrays, function pointers, recursion) must behave identically after
/// the rewrite.
class WallDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WallDifferentialTest, LinkTimeAllocationPreservesBehaviour) {
  auto Sources = generateRandomProgram(GetParam());

  BuildResult BaseB = Pipeline(PipelineConfig::baseline()).build(Sources);
  ASSERT_TRUE(BaseB.ok()) << BaseB.text();
  RunResult Base = runExecutable(BaseB.Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap << (Base.OutOfFuel ? " (fuel)" : "");

  auto Wall = compileWallStyle(Sources);
  ASSERT_TRUE(Wall.Success) << Wall.ErrorText;
  RunResult R = runExecutable(Wall.Exe, 500'000'000);
  ASSERT_TRUE(R.Halted) << R.Trap;
  ASSERT_EQ(R.Output, Base.Output);
  ASSERT_EQ(R.ExitCode, Base.ExitCode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WallDifferentialTest,
                         ::testing::Range(200u, 280u));

/// Three-way check: the reference IR interpreter (on unoptimized IR)
/// must agree with the full pipeline's machine execution, separating
/// optimizer bugs from code-generation bugs.
class InterpDifferentialTest : public ::testing::TestWithParam<unsigned> {
};

TEST_P(InterpDifferentialTest, IRInterpreterMatchesSimulator) {
  auto Sources = generateRandomProgram(GetParam());
  Sources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

  // Front end + raw IR for the interpreter.
  DiagnosticEngine Diags;
  std::vector<std::unique_ptr<IRModule>> IRs;
  for (const SourceFile &Src : Sources) {
    Lexer Lex(Src.Name, Src.Text, Diags);
    Parser P(Src.Name, Lex.lexAll(), Diags);
    auto AST = P.parseModule();
    ASSERT_FALSE(Diags.hasErrors()) << Diags.renderAll();
    Sema S(Diags);
    ASSERT_TRUE(S.run(*AST)) << Diags.renderAll();
    IRs.push_back(generateIR(*AST, Diags));
  }
  std::vector<const IRModule *> Ptrs;
  for (auto &M : IRs)
    Ptrs.push_back(M.get());
  auto IRRun = interpretIR(Ptrs);
  ASSERT_TRUE(IRRun.Ok) << IRRun.Error;

  BuildResult Built = Pipeline(PipelineConfig::configC())
                          .build(std::vector<SourceFile>(Sources.begin(),
                                                         Sources.end() - 1));
  ASSERT_TRUE(Built.ok()) << Built.text();
  RunResult Machine = runExecutable(Built.Exe);
  ASSERT_TRUE(Machine.Halted) << Machine.Trap;
  EXPECT_EQ(Machine.Output, IRRun.Output);
  EXPECT_EQ(Machine.ExitCode, IRRun.ExitCode);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpDifferentialTest,
                         ::testing::Range(60u, 100u));

/// The level-2 pipeline's two stages compose to optimizeFunction. The
/// fused build keeps the IR between them as phase 1's IR file and runs
/// only finishOptimization on it in phase 2, so stopping after
/// optimizeToFixpoint, copying, and finishing the copy must give the
/// same IR byte for byte as optimizing freshly lowered IR in one go —
/// with no globals skipped (phase 1) and with some skipped (phase 2
/// skips the ones the database promotes).
TEST(OptStagesTest, StagesComposeToOptimizeFunction) {
  int SkipMattered = 0;
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    auto Sources = generateRandomProgram(Seed);
    Sources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
    for (const SourceFile &Src : Sources) {
      DiagnosticEngine Diags;
      Lexer Lex(Src.Name, Src.Text, Diags);
      Parser P(Src.Name, Lex.lexAll(), Diags);
      auto AST = P.parseModule();
      ASSERT_FALSE(Diags.hasErrors()) << Diags.renderAll();
      Sema S(Diags);
      ASSERT_TRUE(S.run(*AST)) << Diags.renderAll();
      auto IR = generateIR(*AST, Diags);
      ModulePointsTo PT(*IR);

      std::set<std::string> Half;
      for (size_t G = 0; G < IR->Globals.size(); G += 2)
        Half.insert(IR->Globals[G].Name);
      std::string NoSkipText;
      for (const std::set<std::string> &Skip : {std::set<std::string>(), Half}) {
        OptOptions Options;
        Options.SkipGlobals = Skip;
        Options.Alias = &PT;
        auto Whole = generateIR(*AST, Diags);
        for (auto &F : Whole->Functions)
          optimizeFunction(*F, Options);
        auto Staged = generateIR(*AST, Diags);
        for (auto &F : Staged->Functions)
          optimizeToFixpoint(*F);
        auto Resumed = Staged->clone();
        for (auto &F : Resumed->Functions)
          finishOptimization(*F, Options);
        EXPECT_EQ(Resumed->toString(), Whole->toString())
            << "seed " << Seed << " module " << Src.Name << " skipping "
            << Skip.size() << " globals";
        if (Skip.empty())
          NoSkipText = Whole->toString();
        else
          SkipMattered += Whole->toString() != NoSkipText;
      }
    }
  }
  // The skip set must change the outcome somewhere, or the second
  // configuration checks nothing the first did not.
  EXPECT_GT(SkipMattered, 0);
}

//===----------------------------------------------------------------------===//
// Family 2: analyzer invariants over random call graphs.
//===----------------------------------------------------------------------===//

/// Builds a random module summary: a mostly-layered call graph with a
/// sprinkle of back edges (recursion) and indirect calls.
std::vector<ModuleSummary> randomSummaries(unsigned Seed) {
  std::mt19937 Rng(Seed);
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % unsigned(N));
  };
  int NumProcs = 5 + Rand(40);
  int NumGlobals = 1 + Rand(20);

  ModuleSummary S;
  S.Module = "m";
  for (int I = 0; I < NumProcs; ++I) {
    ProcSummary P;
    P.QualName = I == 0 ? "main" : "p" + std::to_string(I);
    P.Module = "m";
    P.CalleeRegsNeeded = static_cast<unsigned>(Rand(10));
    S.Procs.push_back(std::move(P));
  }
  auto NameOf = [](int I) {
    return I == 0 ? std::string("main") : "p" + std::to_string(I);
  };
  for (int I = 0; I < NumProcs; ++I) {
    int Calls = Rand(4);
    for (int C = 0; C < Calls; ++C) {
      int Target = Rand(NumProcs);
      if (Target == I && Rand(2))
        continue; // Fewer self loops.
      // Mostly forward, occasionally backward (recursion).
      if (Target < I && Rand(4) != 0)
        Target = std::min(NumProcs - 1, I + 1 + Rand(4));
      S.Procs[I].Calls.push_back(
          CallSummary{NameOf(Target), 1 + Rand(30)});
    }
  }
  for (int G = 0; G < NumGlobals; ++G) {
    GlobalSummary GS;
    GS.QualName = "g" + std::to_string(G);
    GS.Module = "m";
    GS.IsScalar = Rand(10) != 0;   // Some arrays.
    GS.Aliased = Rand(10) == 0;    // Some aliased.
    S.Globals.push_back(GS);
    int Refs = 1 + Rand(4);
    for (int R = 0; R < Refs; ++R)
      S.Procs[Rand(NumProcs)].GlobalRefs.push_back(GlobalRefSummary{
          GS.QualName, 1 + Rand(40), Rand(2) == 0});
  }
  // Indirect calls.
  if (Rand(3) == 0) {
    S.Procs[Rand(NumProcs)].MakesIndirectCalls = true;
    S.Procs[Rand(NumProcs)].IndirectCallFreq = 1 + Rand(10);
    S.Procs[0].AddressTakenProcs.push_back(NameOf(Rand(NumProcs)));
  }
  return {S};
}

class AnalyzerInvariantTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AnalyzerInvariantTest, WebInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST_P(AnalyzerInvariantTest, RemergedWebInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);
  AnalyzerOptions Options;
  Options.RemergeWebs = true;
  auto Webs = buildWebs(CG, RS, Options);
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
  // Re-merging must never reduce the promotable priority mass.
  auto Plain = buildWebs(CG, RS);
  long long PlainMass = 0, MergedMass = 0;
  for (const Web &W : Plain)
    if (W.Considered)
      PlainMass += W.Priority;
  for (const Web &W : Webs)
    if (W.Considered)
      MergedMass += W.Priority;
  EXPECT_GE(MergedMass, PlainMass);
}

TEST_P(AnalyzerInvariantTest, ColoringInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);

  auto KWebs = buildWebs(CG, RS);
  colorWebsKRegisters(KWebs, CG, pr32::defaultWebColoringPool());
  auto Problems = checkColoring(KWebs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();

  auto GWebs = buildWebs(CG, RS);
  colorWebsGreedy(GWebs, CG);
  Problems = checkColoring(GWebs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();

  auto BWebs = buildBlanketWebs(CG, RS, pr32::defaultWebColoringPool());
  Problems = checkColoring(BWebs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST_P(AnalyzerInvariantTest, ClusterInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  auto Clusters = identifyClusters(CG);
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST_P(AnalyzerInvariantTest, RegisterSetInvariantsHold) {
  auto Summaries = randomSummaries(GetParam());
  CallGraph CG(Summaries);
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  colorWebsKRegisters(Webs, CG, pr32::defaultWebColoringPool());
  auto Clusters = identifyClusters(CG);

  for (bool Relax : {false, true}) {
    for (bool Improved : {false, true}) {
      AnalyzerOptions Options;
      Options.RelaxWebAvail = Relax;
      Options.ImprovedFreeSets = Improved;
      auto Sets = computeRegisterSets(CG, Clusters, Webs, Options);
      auto Problems =
          checkRegisterSetInvariants(CG, Clusters, Webs, Sets);
      EXPECT_TRUE(Problems.empty())
          << "relax=" << Relax << " improved=" << Improved << ": "
          << Problems.front();
    }
  }
}

TEST_P(AnalyzerInvariantTest, DatabaseRoundTripsExactly) {
  auto Summaries = randomSummaries(GetParam());
  AnalyzerOptions Options;
  ProgramDatabase DB = runAnalyzer(Summaries, Options);
  std::string Text = DB.serialize();
  ProgramDatabase Parsed;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Text, Parsed, Error)) << Error;
  EXPECT_EQ(Parsed.serialize(), Text);
  // The parse is the produced database itself, field for field: phase 2
  // may read either.
  EXPECT_TRUE(Parsed == DB);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerInvariantTest,
                         ::testing::Range(100u, 160u));

} // namespace
