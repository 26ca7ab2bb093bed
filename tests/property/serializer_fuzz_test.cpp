//===- serializer_fuzz_test.cpp - Serializer robustness sweeps ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The summary-file, program-database, and object-file parsers, the
/// service's request and reply decoders and the delta analyzer's
/// retained-run restore consume text that crosses tool or process
/// boundaries; they must reject (never crash on) arbitrary mutations of
/// valid inputs. Each seed derives a valid artifact from a random
/// program, applies byte-level mutations, and feeds the result back
/// through the parser. The artifact readers are also strict: a text
/// that parses writes back to a text that rewrites to itself, and a
/// corrupted numeric value is always rejected.
///
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include "core/Analyzer.h"
#include "core/DeltaAnalyzer.h"
#include "driver/Pipeline.h"
#include "link/ObjectIO.h"
#include "service/Protocol.h"
#include "summary/Summary.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string_view>

using namespace ipra;
using ipra::test::generateRandomProgram;

namespace {

const char ArtifactAlphabet[] =
    "abcdefghij0123456789 =:_#@\nproc end global func i init wrap";
const char JsonAlphabet[] = "{}[]\",:-.e0123456789 truefalsngpbw";

/// Applies \p Count random byte mutations (replace, delete, insert,
/// line swap) to \p Text, inserting bytes drawn from \p Alphabet.
std::string mutate(std::string Text, std::mt19937 &Rng, int Count,
                   std::string_view Alphabet = ArtifactAlphabet) {
  auto Rand = [&Rng](size_t N) {
    return N == 0 ? size_t(0) : size_t(Rng() % N);
  };
  for (int M = 0; M < Count && !Text.empty(); ++M) {
    switch (Rng() % 4) {
    case 0: // Replace a byte.
      Text[Rand(Text.size())] =
          Alphabet[Rand(Alphabet.size())];
      break;
    case 1: // Delete a byte.
      Text.erase(Rand(Text.size()), 1);
      break;
    case 2: // Insert a byte.
      Text.insert(Rand(Text.size()),
                  1, Alphabet[Rand(Alphabet.size())]);
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

/// Replaces the value of one random numeric key=value token of \p Text
/// with a token no field accepts: non-numeric, or out of range for every
/// integer type and too long for a hex mask. Empty when the text has no
/// numeric key=value token.
std::optional<std::string> corruptValue(std::string Text, std::mt19937 &Rng) {
  std::vector<std::pair<size_t, size_t>> Values; // Offset and length.
  for (size_t Begin = 0; Begin < Text.size();) {
    size_t End = std::min(Text.find_first_of(" \n", Begin), Text.size());
    std::string_view Tok(Text.data() + Begin, End - Begin);
    size_t Eq = Tok.find('=');
    std::string_view Key = Tok.substr(0, Eq);
    if (Eq != std::string_view::npos && Key != "config" && Key != "finit" &&
        Key != "funcinit")
      Values.push_back({Begin + Eq + 1, Tok.size() - Eq - 1});
    Begin = End + 1;
  }
  if (Values.empty())
    return std::nullopt;
  auto [At, Len] = Values[Rng() % Values.size()];
  Text.replace(At, Len, Rng() % 2 ? "zz" : "99999999999999999999");
  return Text;
}

enum class Artifact { Summary, Database, Object };

/// Reads \p Text as an artifact of kind \p A and writes it back to
/// \p Out; false (with \p Error) when the reader rejects it.
bool rewrite(Artifact A, const std::string &Text, std::string &Out,
             std::string &Error) {
  switch (A) {
  case Artifact::Summary: {
    ModuleSummary S;
    if (!readSummary(Text, S, Error))
      return false;
    Out = writeSummary(S);
    return true;
  }
  case Artifact::Database: {
    ProgramDatabase DB;
    if (!ProgramDatabase::deserialize(Text, DB, Error))
      return false;
    Out = DB.serialize();
    return true;
  }
  case Artifact::Object: {
    ObjectFile Obj;
    if (!readObjectFile(Text, Obj, Error))
      return false;
    Out = writeObjectFile(Obj);
    return true;
  }
  }
  return false;
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
  const std::string ReplyText = json::encode(Resp).dump();

  std::mt19937 Rng(GetParam() * 7919 + 13);
  for (int Round = 0; Round < 30; ++Round) {
    int Mutations = 1 + static_cast<int>(Rng() % 25);

    const std::pair<Artifact, const std::string *> Texts[] = {
        {Artifact::Summary, &R.SummaryFiles[Rng() % R.SummaryFiles.size()]},
        {Artifact::Database, &R.DatabaseFile},
        {Artifact::Object, &R.ObjectFiles[Rng() % R.ObjectFiles.size()]},
    };
    std::string Error;
    for (const auto &[Kind, Text] : Texts) {
      // A mutated text must not crash its reader; one that still parses
      // writes back to a text that rewrites to itself.
      std::string Mutated = mutate(*Text, Rng, Mutations), Once, Twice;
      if (rewrite(Kind, Mutated, Once, Error)) {
        ASSERT_TRUE(rewrite(Kind, Once, Twice, Error))
            << Mutated << "\nwrote\n" << Once << "\n" << Error;
        EXPECT_EQ(Twice, Once) << Mutated;
      }
      // A corrupted numeric value is always rejected.
      if (std::optional<std::string> Corrupt = corruptValue(*Text, Rng)) {
        EXPECT_FALSE(rewrite(Kind, *Corrupt, Once, Error)) << *Corrupt;
      }
    }

    // A mutated reply that still parses as JSON (mangled keys, values
    // of the wrong kind, numbers out of range) decodes or fails; a
    // decoded one re-encodes to a reply that decodes to itself.
    json::Value Reply;
    BuildResponse Back, Again;
    std::string Path;
    if (json::Value::parse(mutate(ReplyText, Rng, Mutations), Reply, Error) &&
        json::decodePresent(Reply, Back, Path)) {
      ASSERT_TRUE(json::decodePresent(json::encode(Back), Again, Path))
          << Path;
      EXPECT_EQ(json::encode(Again).dump(), json::encode(Back).dump());
    }
  }
  SUCCEED();
}

// A mutated wire config that still parses as JSON either fails the
// request or decodes to a config that re-encodes to itself.
TEST_P(SerializerFuzzTest, MutatedRequestConfigsDecodeOrFail) {
  PipelineConfig Config = PipelineConfig::configC();
  Config.SplitSparseWebs = true;
  Config.NumThreads = 3;
  const std::string Text = json::encode(Config).dump();

  std::mt19937 Rng(GetParam() * 104729 + 7);
  int Accepted = 0;
  for (int Round = 0; Round < 200; ++Round) {
    std::string Mutated =
        mutate(Text, Rng, 1 + static_cast<int>(Rng() % 4), JsonAlphabet);
    json::Value Req;
    std::string ParseError;
    if (!json::Value::parse(R"({"phase":"full","config":)" + Mutated + "}",
                            Req, ParseError))
      continue;
    BuildRequest Back;
    std::string DecodeError;
    if (!requestFromJson(Req, Back, DecodeError)) {
      EXPECT_NE(DecodeError.find("config"), std::string::npos) << Mutated;
      continue;
    }
    ++Accepted;
    BuildRequest Again;
    ASSERT_TRUE(requestFromJson(json::encode(Back), Again, DecodeError))
        << Mutated << ": " << DecodeError;
    EXPECT_EQ(json::encode(Again.Config).dump(),
              json::encode(Back.Config).dump())
        << Mutated;
  }
  EXPECT_GT(Accepted, 0);
}

// Mutated retained-run blobs — anywhere in the blob, or inside its JSON
// header line — never crash restoreRetained. The header's digest covers
// the run, so a blob that still restores carries the run as it was
// written: the analysis after it equals runAnalyzer, exactly like the
// cold analysis after a rejected blob.
TEST_P(SerializerFuzzTest, MutatedRetainedBlobsNeverCrashRestore) {
  auto Sources = generateRandomProgram(GetParam());
  BuildResult R = Pipeline(PipelineConfig::configC()).build(Sources);
  ASSERT_TRUE(R.ok()) << R.text();
  std::vector<ModuleSummary> Mods(R.SummaryFiles.size());
  std::string Error;
  for (size_t I = 0; I < Mods.size(); ++I)
    ASSERT_TRUE(readSummary(R.SummaryFiles[I], Mods[I], Error)) << Error;

  const AnalyzerOptions Options =
      PipelineConfig::configC().analyzerOptions();
  DeltaAnalyzer Producer;
  Producer.analyze(Mods, Options);
  std::string Blob;
  ASSERT_TRUE(Producer.serializeRetained(Blob));
  const std::string Reference = runAnalyzer(Mods, Options).serialize();
  const size_t HeaderEnd = Blob.find('\n');
  ASSERT_NE(HeaderEnd, std::string::npos);

  std::mt19937 Rng(GetParam() * 15485863 + 11);
  int Rejected = 0;
  for (int Round = 0; Round < 40; ++Round) {
    int Mutations = 1 + static_cast<int>(Rng() % 6);
    std::string Mutated =
        Round % 2 ? mutate(Blob, Rng, Mutations)
                  : mutate(Blob.substr(0, HeaderEnd), Rng, Mutations,
                           JsonAlphabet) +
                        Blob.substr(HeaderEnd);
    DeltaAnalyzer DA;
    bool Restored = DA.restoreRetained(Mutated, Error);
    Rejected += !Restored;
    EXPECT_EQ(DA.primed(), Restored);
    EXPECT_EQ(DA.analyze(Mods, Options).serialize(), Reference)
        << "round " << Round << ": " << (Restored ? "restored" : Error);
    if (!Restored) {
      EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full);
    }
  }
  EXPECT_GT(Rejected, 0);
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
