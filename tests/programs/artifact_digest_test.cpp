//===- artifact_digest_test.cpp - Recorded artifact digests ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Byte identity as a test: every corpus cell (each program at base and
/// A-F) is built, and the FNV-1a digests of its summaries, its database
/// and each of its object texts must equal the line recorded for the
/// cell in artifact_digests.txt. A simplification that claims to change
/// no output is held to that claim here. On a mismatch the test prints
/// the fresh line, so a deliberate re-baseline is a visible edit of the
/// digest file. Each text must also survive its reader: write(read(T))
/// is T, and read(write(X)) equals X field for field. A build hands its
/// own summaries to the analyzer and its own objects to the linker
/// without parsing their texts, so analyzing and linking the parsed
/// texts must give the build's database and executable.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "driver/Pipeline.h"
#include "link/ObjectIO.h"
#include "summary/Summary.h"
#include "support/Hash.h"

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
  std::ifstream In(IPRA_ARTIFACT_DIGESTS);
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

/// One cell's line: "<program> <config> summaries=H db=H objects=H,H,...".
std::string digestLine(const std::string &Program, const std::string &Config,
                       const BuildResult &B) {
  std::vector<std::string_view> Summaries(B.SummaryFiles.begin(),
                                          B.SummaryFiles.end());
  std::string Line = Program + " " + Config +
                     " summaries=" + hashParts(Summaries) +
                     " db=" + hashHex(B.DatabaseFile) + " objects=";
  for (size_t I = 0; I < B.ObjectFiles.size(); ++I)
    Line += (I ? "," : "") + hashHex(B.ObjectFiles[I]);
  return Line;
}

/// Reader completeness: each of the cell's non-empty artifact texts reads
/// back and writes out to the same bytes, so no field the writer emits
/// is lost or re-spelled by the reader, and a summary or object read
/// back from its own text equals it.
void expectRewritesItself(const std::string &Cell, const BuildResult &B) {
  std::string Error;
  for (const std::string &Text : B.SummaryFiles) {
    ModuleSummary S, Again;
    EXPECT_TRUE(readSummary(Text, S, Error)) << Cell << ": " << Error;
    EXPECT_EQ(writeSummary(S), Text) << Cell;
    EXPECT_TRUE(readSummary(writeSummary(S), Again, Error)) << Cell;
    EXPECT_TRUE(Again == S) << Cell << ": summary " << S.Module;
  }
  if (!B.DatabaseFile.empty()) {
    ProgramDatabase DB;
    EXPECT_TRUE(ProgramDatabase::deserialize(B.DatabaseFile, DB, Error))
        << Cell << ": " << Error;
    EXPECT_EQ(DB.serialize(), B.DatabaseFile) << Cell;
  }
  for (const std::string &Text : B.ObjectFiles) {
    ObjectFile Obj, Again;
    EXPECT_TRUE(readObjectFile(Text, Obj, Error)) << Cell << ": " << Error;
    EXPECT_EQ(writeObjectFile(Obj), Text) << Cell;
    EXPECT_TRUE(readObjectFile(writeObjectFile(Obj), Again, Error)) << Cell;
    EXPECT_TRUE(Again == Obj) << Cell << ": object " << Obj.Module;
  }
}

/// The build kept its in-process summaries and objects; a fresh pipeline
/// fed the parsed texts must reach the same database and executable.
void expectParsedTextsBuildTheSame(const std::string &Cell,
                                   const PipelineConfig &Config,
                                   const ProfileData *Profile,
                                   const BuildResult &B) {
  if (!B.SummaryFiles.empty()) {
    DatabaseResult DB = Pipeline(Config).analyze(B.SummaryFiles, Profile);
    ASSERT_TRUE(DB.ok()) << Cell << ": " << DB.text();
    EXPECT_EQ(DB.DatabaseText, B.DatabaseFile) << Cell;
  }
  auto Linked = Pipeline(Config).execute(BuildRequest::link(B.ObjectFiles));
  ASSERT_TRUE(Linked.ok()) << Cell << ": " << Linked.text();
  EXPECT_TRUE(Linked->Exe == B.Exe) << Cell;
}

class ArtifactDigestTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ArtifactDigestTest, MatchesRecordedDigests) {
  static const std::map<std::string, std::string> Recorded =
      recordedDigests();
  const std::string Program = GetParam();
  auto Sources = loadProgram(Program);
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
    std::string Fresh = digestLine(Program, Name, B);
    auto It = Recorded.find(Program + " " + Name);
    std::string Expected = It == Recorded.end() ? "(none)" : It->second;
    EXPECT_EQ(Expected, Fresh) << "fresh line:\n" << Fresh;
    expectRewritesItself(Program + " " + Name, B);
    expectParsedTextsBuildTheSame(Program + " " + Name, Config, Profile, B);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, ArtifactDigestTest,
                         ::testing::Values("dhry", "fgrep", "othello",
                                           "war", "crtool", "protoc",
                                           "paopt", "disp", "ptrchase",
                                           "rotab"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
