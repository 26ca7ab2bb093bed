//===- oracle_digest_test.cpp - Recorded oracle results -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The two oracles as a test: every corpus cell (each program at base
/// and A-F) is built and simulated, and its RunStats, an FNV-1a digest
/// of its call profile's JSON encoding and a digest of its output must
/// equal the line recorded for the cell in oracle_digests.txt. Each
/// program is also run on the reference IR interpreter, whose step count
/// and output digest are recorded the same way. A change to either
/// oracle that claims to change no result is held to that claim here;
/// on a mismatch the test prints the fresh line.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace ipra;
using namespace ipra::bench;

namespace {

/// Recorded lines keyed by "<program> <config>".
std::map<std::string, std::string> recordedDigests() {
  std::map<std::string, std::string> Lines;
  std::ifstream In(IPRA_ORACLE_DIGESTS);
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Fields(Line);
    std::string Program, Config;
    if (Line.empty() || Line[0] == '#' || !(Fields >> Program >> Config))
      continue;
    Lines[Program + " " + Config] = Line;
  }
  return Lines;
}

/// One simulated cell's line.
std::string simLine(const std::string &Cell, const RunResult &R) {
  const RunStats &S = R.Stats;
  return Cell + " cycles=" + std::to_string(S.Cycles) +
         " instrs=" + std::to_string(S.Instructions) +
         " memrefs=" + std::to_string(S.MemRefs) +
         " singletons=" + std::to_string(S.SingletonRefs) +
         " calls=" + std::to_string(S.Calls) +
         " exit=" + std::to_string(R.ExitCode) +
         " profile=" + hashHex(json::encode(R.Profile).dump()) +
         " output=" + hashHex(R.Output);
}

/// The interpreter's line for a program.
std::string interpLine(const std::string &Program, const IRRunResult &R) {
  return Program + " interp steps=" + std::to_string(R.Steps) +
         " exit=" + std::to_string(R.ExitCode) +
         " output=" + hashHex(R.Output);
}

void expectRecorded(const std::string &Cell, const std::string &Fresh) {
  static const std::map<std::string, std::string> Recorded =
      recordedDigests();
  auto It = Recorded.find(Cell);
  std::string Expected = It == Recorded.end() ? "(none)" : It->second;
  EXPECT_EQ(Expected, Fresh) << "fresh line:\n" << Fresh;
}

class OracleDigestTest : public ::testing::TestWithParam<const char *> {};

TEST_P(OracleDigestTest, MatchesRecordedDigests) {
  const std::string Program = GetParam();
  auto Sources = loadProgram(Program);

  IRRunResult Ref = interpretProgram(Sources);
  ASSERT_TRUE(Ref.Ok) << Ref.Error;
  expectRecorded(Program + " interp", interpLine(Program, Ref));

  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  ASSERT_TRUE(Base.Halted) << Base.Trap;
  const std::pair<const char *, PipelineConfig> Configs[] = {
      {"base", PipelineConfig::baseline()}, {"A", PipelineConfig::configA()},
      {"B", PipelineConfig::configB()},     {"C", PipelineConfig::configC()},
      {"D", PipelineConfig::configD()},     {"E", PipelineConfig::configE()},
      {"F", PipelineConfig::configF()},
  };
  for (const auto &[Name, Config] : Configs) {
    const ProfileData *Profile = Config.UseProfile ? &Base.Profile : nullptr;
    BuildResult B = Pipeline(Config).build(Sources, Profile);
    ASSERT_TRUE(B.ok()) << Name << ": " << B.text();
    RunResult R = runExecutable(B.Exe);
    ASSERT_TRUE(R.Halted) << Name << ": " << R.Trap;
    EXPECT_EQ(R.Output, Ref.Output) << Name;
    std::string Cell = Program + " " + Name;
    expectRecorded(Cell, simLine(Cell, R));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, OracleDigestTest,
                         ::testing::Values("dhry", "fgrep", "othello",
                                           "war", "crtool", "protoc",
                                           "paopt", "disp", "ptrchase",
                                           "rotab"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
