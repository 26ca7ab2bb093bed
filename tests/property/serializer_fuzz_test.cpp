//===- serializer_fuzz_test.cpp - Serializer robustness sweeps ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The summary-file, program-database, and object-file parsers and the
/// service's reply decoder consume text that crosses tool boundaries;
/// they must reject (never crash on) arbitrary mutations of valid
/// inputs. Each seed derives a valid artifact from a random program,
/// applies byte-level mutations, and feeds the result back through the
/// parser.
///
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "core/Analyzer.h"
#include "driver/Pipeline.h"
#include "link/ObjectIO.h"
#include "service/Protocol.h"
#include "summary/Summary.h"

#include <gtest/gtest.h>

#include <random>

using namespace ipra;
using ipra::test::generateRandomProgram;

namespace {

/// Applies \p Count random byte mutations (replace, delete, insert,
/// line swap) to \p Text.
std::string mutate(std::string Text, std::mt19937 &Rng, int Count) {
  auto Rand = [&Rng](size_t N) {
    return N == 0 ? size_t(0) : size_t(Rng() % N);
  };
  static const char Alphabet[] =
      "abcdefghij0123456789 =:_#@\nproc end global func i init wrap";
  for (int M = 0; M < Count && !Text.empty(); ++M) {
    switch (Rng() % 4) {
    case 0: // Replace a byte.
      Text[Rand(Text.size())] =
          Alphabet[Rand(sizeof(Alphabet) - 1)];
      break;
    case 1: // Delete a byte.
      Text.erase(Rand(Text.size()), 1);
      break;
    case 2: // Insert a byte.
      Text.insert(Rand(Text.size()),
                  1, Alphabet[Rand(sizeof(Alphabet) - 1)]);
      break;
    case 3: { // Duplicate a random chunk somewhere else.
      size_t From = Rand(Text.size());
      size_t Len = std::min<size_t>(1 + Rand(40), Text.size() - From);
      Text.insert(Rand(Text.size()), Text.substr(From, Len));
      break;
    }
    }
  }
  return Text;
}

class SerializerFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SerializerFuzzTest, MutatedArtifactsNeverCrashParsers) {
  auto Sources = generateRandomProgram(GetParam());
  BuildResult R = Pipeline(PipelineConfig::configC()).build(Sources);
  ASSERT_TRUE(R.ok()) << R.text();

  // A build reply carrying this build's statistics (the artifacts are
  // fuzzed through their own parsers above).
  BuildResponse Resp;
  Resp.Analyzer = R.Analyzer;
  Resp.Delta = R.Delta;
  Resp.Stats = R.Stats;
  const std::string ReplyText = responseToJson(Resp).dump();

  std::mt19937 Rng(GetParam() * 7919 + 13);
  for (int Round = 0; Round < 30; ++Round) {
    int Mutations = 1 + static_cast<int>(Rng() % 25);

    std::string Summary =
        mutate(R.SummaryFiles[Rng() % R.SummaryFiles.size()], Rng,
               Mutations);
    ModuleSummary MS;
    std::string Error;
    readSummary(Summary, MS, Error); // Must not crash; result ignored.

    std::string DB = mutate(R.DatabaseFile, Rng, Mutations);
    ProgramDatabase PDB;
    ProgramDatabase::deserialize(DB, PDB, Error);

    std::string Obj =
        mutate(R.ObjectFiles[Rng() % R.ObjectFiles.size()], Rng,
               Mutations);
    ObjectFile OF;
    readObjectFile(Obj, OF, Error);

    // A mutated reply that still parses as JSON (mangled keys, values
    // of the wrong kind, numbers out of range) decodes to defaults.
    json::Value Reply;
    if (json::Value::parse(mutate(ReplyText, Rng, Mutations), Reply, Error))
      responseFromJson(Reply);
  }
  SUCCEED();
}

TEST_P(SerializerFuzzTest, UnmutatedArtifactsStillParse) {
  auto Sources = generateRandomProgram(GetParam());
  BuildResult R = Pipeline(PipelineConfig::configC()).build(Sources);
  ASSERT_TRUE(R.ok()) << R.text();
  std::string Error;
  for (const std::string &S : R.SummaryFiles) {
    ModuleSummary MS;
    EXPECT_TRUE(readSummary(S, MS, Error)) << Error;
  }
  ProgramDatabase DB;
  EXPECT_TRUE(ProgramDatabase::deserialize(R.DatabaseFile, DB, Error))
      << Error;
  for (const std::string &O : R.ObjectFiles) {
    ObjectFile OF;
    EXPECT_TRUE(readObjectFile(O, OF, Error)) << Error;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerFuzzTest,
                         ::testing::Range(500u, 512u));

} // namespace
