//===- programs_test.cpp - Benchmark program validation -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Compiles and runs every Table 3 benchmark program at the baseline and
/// at configuration C, checking that both halt, produce identical
/// output, and that configuration C never does worse on singleton
/// memory references. A second suite fences the fused build's phase-1
/// IR file: its artifacts must equal the standalone phase chain's. A
/// third proves the fact that lets a build hand phase 2 the database
/// the analyzer produced instead of the database file's parse: the two
/// are equal.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "driver/Pipeline.h"

#include <gtest/gtest.h>

using namespace ipra;
using namespace ipra::bench;

namespace {

class ProgramTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ProgramTest, BaselineRuns) {
  auto Sources = loadProgram(GetParam());
  BuildResult B = Pipeline(PipelineConfig::baseline()).build(Sources);
  ASSERT_TRUE(B.ok()) << B.text();
  RunResult R = runExecutable(B.Exe);
  ASSERT_TRUE(R.Halted) << R.Trap << (R.OutOfFuel ? " (out of fuel)" : "");
  EXPECT_FALSE(R.Output.empty());
  EXPECT_EQ(R.ExitCode, 0);
  // Keep the simulation budget sane: under 100M cycles per program.
  EXPECT_LT(R.Stats.Cycles, 100'000'000);
  EXPECT_GT(R.Stats.Cycles, 1'000);
}

TEST_P(ProgramTest, ConfigCMatchesBaselineOutput) {
  auto Sources = loadProgram(GetParam());
  BuildResult BaseB = Pipeline(PipelineConfig::baseline()).build(Sources);
  ASSERT_TRUE(BaseB.ok()) << BaseB.text();
  RunResult Base = runExecutable(BaseB.Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap;

  BuildResult WithCB = Pipeline(PipelineConfig::configC()).build(Sources);
  ASSERT_TRUE(WithCB.ok()) << WithCB.text();
  RunResult WithC = runExecutable(WithCB.Exe);
  ASSERT_TRUE(WithC.Halted) << WithC.Trap;

  EXPECT_EQ(WithC.Output, Base.Output);
  EXPECT_EQ(WithC.ExitCode, Base.ExitCode);
  // Promotion must not add singleton references.
  EXPECT_LE(WithC.Stats.SingletonRefs, Base.Stats.SingletonRefs);
}

TEST_P(ProgramTest, AllRemainingConfigsMatch) {
  auto Sources = loadProgram(GetParam());
  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap;
  ProfileData Profile = Base.Profile;

  struct Named {
    const char *Name;
    PipelineConfig Config;
  };
  const Named Configs[] = {
      {"A", PipelineConfig::configA()},
      {"B", PipelineConfig::configB()},
      {"D", PipelineConfig::configD()},
      {"E", PipelineConfig::configE()},
      {"F", PipelineConfig::configF()},
  };
  for (const Named &N : Configs) {
    BuildResult B = Pipeline(N.Config).build(Sources, &Profile);
    ASSERT_TRUE(B.ok()) << N.Name << ": " << B.text();
    RunResult R = runExecutable(B.Exe);
    ASSERT_TRUE(R.Halted) << N.Name << ": " << R.Trap;
    EXPECT_EQ(R.Output, Base.Output) << "config " << N.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ProgramTest,
                         ::testing::Values("dhry", "fgrep", "othello",
                                           "war", "crtool", "protoc",
                                           "paopt", "disp"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

/// The fused build resumes phase 2 from phase 1's in-memory IR file.
/// The standalone chain (a Summary request, then analyze, then an
/// Object request, one module at a time) never has one and lowers every
/// module again from its source; so does the batched chain, one Summary
/// and one Object request each carrying every module, whose per-function
/// code generation fans out across the pool. All three must produce the
/// same summaries, database and objects byte for byte, at every
/// configuration and at 1 and 4 threads.
class BuildVsChainTest : public ::testing::TestWithParam<const char *> {};

TEST_P(BuildVsChainTest, FusedBuildMatchesPhaseChain) {
  auto Sources = loadProgram(GetParam());
  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap;
  const ProfileData Profile = Base.Profile;
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

  struct Named {
    const char *Name;
    PipelineConfig Config;
  };
  const Named Configs[] = {
      {"base", PipelineConfig::baseline()}, {"A", PipelineConfig::configA()},
      {"B", PipelineConfig::configB()},     {"C", PipelineConfig::configC()},
      {"D", PipelineConfig::configD()},     {"E", PipelineConfig::configE()},
      {"F", PipelineConfig::configF()},
  };
  for (const Named &N : Configs) {
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("config ") + N.Name + " at " +
                   std::to_string(Threads) + " threads");
      PipelineConfig Config = N.Config;
      Config.NumThreads = Threads;
      const ProfileData *P = Config.UseProfile ? &Profile : nullptr;
      BuildResult Fused = Pipeline(Config).build(Sources, P);
      ASSERT_TRUE(Fused.ok()) << Fused.Diags.text();

      Pipeline Chain(Config);
      std::vector<std::string> Summaries;
      std::string Database;
      if (Config.Ipra) {
        for (const SourceFile &Src : All) {
          auto S = Chain.execute(BuildRequest::summary(Config, {Src}));
          ASSERT_TRUE(S.ok()) << Src.Name << ": " << S.Diags.text();
          Summaries.push_back(std::move(S->Summaries.front()));
        }
        DatabaseResult D = Chain.analyze(Summaries, P);
        ASSERT_TRUE(D.ok()) << D.Diags.text();
        Database = std::move(D.DatabaseText);
      }
      std::vector<std::string> Objects;
      for (const SourceFile &Src : All) {
        auto O = Chain.execute(BuildRequest::object(Config, {Src}, Database));
        ASSERT_TRUE(O.ok()) << Src.Name << ": " << O.Diags.text();
        Objects.push_back(std::move(O->Objects.front()));
      }
      EXPECT_EQ(Fused.SummaryFiles, Summaries);
      EXPECT_EQ(Fused.DatabaseFile, Database);
      EXPECT_EQ(Fused.ObjectFiles, Objects);

      Pipeline Batched(Config);
      if (Config.Ipra) {
        Result<BuildResponse> S =
            Batched.execute(BuildRequest::summary(Config, All));
        ASSERT_TRUE(S.ok()) << S.text();
        EXPECT_EQ(Fused.SummaryFiles, S.Value.Summaries);
      }
      Result<BuildResponse> O =
          Batched.execute(BuildRequest::object(Config, All, Database));
      ASSERT_TRUE(O.ok()) << O.text();
      EXPECT_EQ(O.Value.Stats.ThreadsUsed, Threads);
      EXPECT_EQ(Fused.ObjectFiles, O.Value.Objects);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, BuildVsChainTest,
                         ::testing::Values("dhry", "fgrep", "othello",
                                           "war", "crtool", "protoc",
                                           "paopt", "disp", "ptrchase",
                                           "rotab"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

/// A build writes the database file once and gives phase 2 the
/// database the analyzer produced; a standalone phase 2 reads the file.
/// They agree because parsing a written database gives it back field for
/// field, which this suite checks on every corpus program at base and
/// A-F.
class DatabaseRoundTripTest : public ::testing::TestWithParam<const char *> {};

TEST_P(DatabaseRoundTripTest, ParsedDatabaseEqualsProduced) {
  auto Sources = loadProgram(GetParam());
  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap;
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});

  const std::pair<const char *, PipelineConfig> Configs[] = {
      {"base", PipelineConfig::baseline()}, {"A", PipelineConfig::configA()},
      {"B", PipelineConfig::configB()},     {"C", PipelineConfig::configC()},
      {"D", PipelineConfig::configD()},     {"E", PipelineConfig::configE()},
      {"F", PipelineConfig::configF()},
  };
  for (const auto &[Name, Config] : Configs) {
    SCOPED_TRACE(std::string("config ") + Name);
    Result<BuildResponse> P1 =
        Pipeline(Config).execute(BuildRequest::summary(Config, All));
    ASSERT_TRUE(P1.ok()) << P1.text();
    std::vector<ModuleSummary> Summaries(P1.Value.Summaries.size());
    std::string Error;
    for (size_t I = 0; I < Summaries.size(); ++I)
      ASSERT_TRUE(readSummary(P1.Value.Summaries[I], Summaries[I], Error))
          << Error;
    CallProfile Profile;
    if (Config.UseProfile) {
      Profile.CallCounts = Base.Profile.CallCounts;
      Profile.EdgeCounts = Base.Profile.EdgeCounts;
    }
    ProgramDatabase Produced =
        runAnalyzer(Summaries, Config.analyzerOptions(), Profile);
    Produced.ConfigFingerprint = Config.fingerprint();
    ProgramDatabase Parsed;
    ASSERT_TRUE(
        ProgramDatabase::deserialize(Produced.serialize(), Parsed, Error))
        << Error;
    EXPECT_TRUE(Parsed == Produced);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, DatabaseRoundTripTest,
                         ::testing::Values("dhry", "fgrep", "othello",
                                           "war", "crtool", "protoc",
                                           "paopt", "disp", "ptrchase",
                                           "rotab"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
