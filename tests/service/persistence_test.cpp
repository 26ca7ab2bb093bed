//===- persistence_test.cpp - Session eviction and warm restarts ----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The bounded-hot-state contract: evicting a retained session (LRU
// over MaxSessions) only ever degrades the next request for that
// program to a cold — byte-identical — build, never a wrong one; with
// a SessionDir configured, eviction and graceful shutdown persist the
// retained run so the next request (or the next daemon) restores it
// and keeps the delta path. A stale or corrupt session file is
// rejected and falls back to the cold path, again byte-identically.
// The memory-budgeted artifact cache gets the same treatment: eviction
// may cost recompute time, never bytes.
//
//===----------------------------------------------------------------------===//

#include "service/BuildService.h"

#include "ServiceTestUtil.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace ipra;
using namespace ipra::servicetest;

namespace {

BuildRequest fullRequest(const std::string &Program, int Seed,
                         int Version = 0) {
  return BuildRequest::full(PipelineConfig::configC(),
                            editedCorpus(Seed, Version), Program);
}

/// Response artifacts == cold one-shot artifacts, byte for byte.
void expectMatchesReference(const BuildResponse &Resp,
                            const std::vector<SourceFile> &Sources) {
  BuildResult Ref = referenceBuild(Sources);
  ASSERT_TRUE(Ref.ok()) << Ref.text();
  EXPECT_EQ(Resp.Database, Ref.DatabaseFile);
  ASSERT_EQ(Resp.Objects.size(), Ref.ObjectFiles.size());
  for (size_t I = 0; I < Resp.Objects.size(); ++I)
    EXPECT_EQ(Resp.Objects[I], Ref.ObjectFiles[I]) << "object " << I;
}

/// The one persisted session file under \p Dir (fails the test when
/// the count differs from one).
std::string soleSessionFile(const std::string &Dir) {
  std::string Found;
  int Count = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".session") {
      Found = E.path().string();
      ++Count;
    }
  EXPECT_EQ(Count, 1) << "expected exactly one session file in " << Dir;
  return Found;
}

TEST(SessionEvictionTest, EvictionDegradesToByteIdenticalColdBuild) {
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.MaxSessions = 1;
  BuildService Service(SC);

  ASSERT_TRUE(Service.handle(fullRequest("a", 1)).ok());
  // Program b displaces a's retained session (LRU, bound 1).
  ASSERT_TRUE(Service.handle(fullRequest("b", 2)).ok());

  // The edited rebuild of a finds no session: a cold full analysis,
  // byte-identical to the one-shot build of the same sources.
  Result<BuildResponse> R = Service.handle(fullRequest("a", 1, 1));
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.Value.Stats.AnalyzerMode, "full");
  expectMatchesReference(R.Value, editedCorpus(1, 1));

  BuildServiceStats Stats = Service.stats();
  EXPECT_GE(Stats.SessionsEvicted, 1ull);
  EXPECT_LE(Stats.RetainedSessions, 1u);
  EXPECT_EQ(Stats.PeakRetainedSessions, 2u)
      << "the displaced entry coexisted with its displacer only until "
         "the post-request sweep";
  // Eviction folds the dead sessions' run counters into the totals
  // instead of losing them.
  EXPECT_EQ(Stats.AnalyzerRuns, 3ull);
  EXPECT_EQ(Stats.FullRuns, 3ull);
  EXPECT_EQ(Stats.DeltaHits, 0ull);
}

TEST(SessionEvictionTest, UnboundedServiceKeepsTheDeltaPath) {
  // Control for the test above: without the bound, the same sequence
  // keeps a's session and the edit takes the delta path.
  BuildServiceConfig SC;
  SC.Workers = 1;
  BuildService Service(SC);
  ASSERT_TRUE(Service.handle(fullRequest("a", 1)).ok());
  ASSERT_TRUE(Service.handle(fullRequest("b", 2)).ok());
  Result<BuildResponse> R = Service.handle(fullRequest("a", 1, 1));
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.Value.Stats.AnalyzerMode, "delta")
      << "fallback: " << R.Value.Delta.FallbackReason;
  expectMatchesReference(R.Value, editedCorpus(1, 1));
  EXPECT_EQ(Service.stats().SessionsEvicted, 0ull);
}

TEST(SessionEvictionTest, SessionDirTurnsEvictionIntoWarmReload) {
  TempDir Dir("evict_persist");
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.MaxSessions = 1;
  SC.SessionDir = Dir.str();
  BuildService Service(SC);

  ASSERT_TRUE(Service.handle(fullRequest("a", 1)).ok());
  ASSERT_TRUE(Service.handle(fullRequest("b", 2)).ok());

  // a's eviction wrote a session file; the edited rebuild restores it
  // and re-analyzes only the damage region.
  Result<BuildResponse> R = Service.handle(fullRequest("a", 1, 1));
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.Value.Stats.AnalyzerMode, "delta")
      << "fallback: " << R.Value.Delta.FallbackReason;
  expectMatchesReference(R.Value, editedCorpus(1, 1));

  BuildServiceStats Stats = Service.stats();
  EXPECT_GE(Stats.SessionsPersisted, 1ull);
  EXPECT_GE(Stats.SessionsRestored, 1ull);
  EXPECT_EQ(Stats.RestoresRejected, 0ull);
}

TEST(WarmRestartTest, ShutdownPersistsAndTheNextServiceRestores) {
  TempDir Dir("restart");
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.SessionDir = Dir.str();

  {
    BuildService First(SC);
    ASSERT_TRUE(First.handle(fullRequest("prog", 3)).ok());
    First.shutdown();
    EXPECT_GE(First.stats().SessionsPersisted, 1ull);
  }
  ASSERT_FALSE(soleSessionFile(Dir.str()).empty());

  // A fresh service — a restarted daemon — restores the persisted run
  // on the first request and keeps the delta path across the restart.
  BuildService Second(SC);
  Result<BuildResponse> R = Second.handle(fullRequest("prog", 3, 1));
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.Value.Stats.AnalyzerMode, "delta")
      << "fallback: " << R.Value.Delta.FallbackReason;
  expectMatchesReference(R.Value, editedCorpus(3, 1));

  BuildServiceStats Stats = Second.stats();
  EXPECT_EQ(Stats.SessionsRestored, 1ull);
  EXPECT_EQ(Stats.RestoresRejected, 0ull);
}

TEST(WarmRestartTest, GarbageSessionFileFallsBackCold) {
  TempDir Dir("restart_garbage");
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.SessionDir = Dir.str();

  {
    BuildService First(SC);
    ASSERT_TRUE(First.handle(fullRequest("prog", 4)).ok());
    First.shutdown();
  }
  std::string File = soleSessionFile(Dir.str());
  ASSERT_FALSE(File.empty());
  {
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out << "not a session file at all\n";
  }

  BuildService Second(SC);
  Result<BuildResponse> R = Second.handle(fullRequest("prog", 4, 1));
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.Value.Stats.AnalyzerMode, "full");
  expectMatchesReference(R.Value, editedCorpus(4, 1));

  BuildServiceStats Stats = Second.stats();
  EXPECT_EQ(Stats.SessionsRestored, 0ull);
  EXPECT_GE(Stats.RestoresRejected, 1ull);
}

TEST(WarmRestartTest, TruncatedBlobIsRejectedAtRestoreTime) {
  TempDir Dir("restart_truncated");
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.SessionDir = Dir.str();

  {
    BuildService First(SC);
    ASSERT_TRUE(First.handle(fullRequest("prog", 5)).ok());
    First.shutdown();
  }
  std::string File = soleSessionFile(Dir.str());
  ASSERT_FALSE(File.empty());
  // Keep the session header (so the lazy restore is attempted) but
  // chop the retained-run blob: the restore must reject it and fall
  // back cold instead of trusting a half-written file.
  std::string Bytes;
  {
    std::ifstream In(File, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Bytes = Buf.str();
  }
  size_t HeaderEnd = Bytes.find('\n');
  ASSERT_NE(HeaderEnd, std::string::npos);
  size_t BlobStart = HeaderEnd + 1;
  ASSERT_LT(BlobStart + 10, Bytes.size()) << "blob unexpectedly tiny";
  {
    std::ofstream Out(File, std::ios::binary | std::ios::trunc);
    Out << Bytes.substr(0, BlobStart + 10);
  }

  BuildService Second(SC);
  Result<BuildResponse> R = Second.handle(fullRequest("prog", 5, 1));
  ASSERT_TRUE(R.ok()) << R.text();
  EXPECT_EQ(R.Value.Stats.AnalyzerMode, "full");
  expectMatchesReference(R.Value, editedCorpus(5, 1));
  EXPECT_GE(Second.stats().RestoresRejected, 1ull);
}

// Files written before the JSON headers are rejected, counted, and
// followed by a cold build with identical bytes: a version-1 session
// file, and a version-4 retained run behind a current session header.
TEST(WarmRestartTest, OldFormatFilesAreRejected) {
  TempDir Dir("restart_old_format");
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.SessionDir = Dir.str();

  {
    BuildService First(SC);
    ASSERT_TRUE(First.handle(fullRequest("prog", 6)).ok());
    First.shutdown();
  }
  const std::string File = soleSessionFile(Dir.str());
  ASSERT_FALSE(File.empty());
  std::string Bytes;
  {
    std::ifstream In(File, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Bytes = Buf.str();
  }
  const size_t HeaderEnd = Bytes.find('\n');
  ASSERT_NE(HeaderEnd, std::string::npos);
  json::Value Header;
  std::string Error;
  ASSERT_TRUE(json::Value::parse(Bytes.substr(0, HeaderEnd), Header, Error))
      << Error;
  ASSERT_NE(Header.find("config"), nullptr);
  const std::string V4Run = "ipra-retained 4\noptions {}\nprofile 0 0\n"
                            "summaries 0\nwebs 0 0\ndatabase 0\n\nend\n";
  const std::string OldFiles[] = {
      "ipra-session 1\nprogram 4\nprog\nconfig " +
          Header.find("config")->asString() + "\n" + V4Run,
      Bytes.substr(0, HeaderEnd + 1) + V4Run,
  };
  for (const std::string &Old : OldFiles) {
    {
      std::ofstream Out(File, std::ios::binary | std::ios::trunc);
      Out << Old;
    }
    BuildService Second(SC);
    Result<BuildResponse> R = Second.handle(fullRequest("prog", 6, 1));
    ASSERT_TRUE(R.ok()) << R.text();
    EXPECT_EQ(R.Value.Stats.AnalyzerMode, "full") << Old;
    expectMatchesReference(R.Value, editedCorpus(6, 1));
    BuildServiceStats Stats = Second.stats();
    EXPECT_EQ(Stats.SessionsRestored, 0ull) << Old;
    EXPECT_EQ(Stats.RestoresRejected, 1ull) << Old;
  }
}

TEST(CacheBudgetTest, TinyMemBudgetStaysByteIdentical) {
  // A memory budget far below the working set forces constant LRU
  // eviction; every response must still be byte-identical — eviction
  // costs recompute, never correctness.
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.CacheMemBudgetBytes = 2048;
  BuildService Service(SC);

  for (int Seed = 1; Seed <= 3; ++Seed) {
    std::string Program = "p";
    Program += std::to_string(Seed);
    Result<BuildResponse> Cold = Service.handle(fullRequest(Program, Seed));
    ASSERT_TRUE(Cold.ok()) << Cold.text();
    expectMatchesReference(Cold.Value, editedCorpus(Seed, 0));
  }
  for (int Seed = 1; Seed <= 3; ++Seed) {
    std::string Program = "p";
    Program += std::to_string(Seed);
    Result<BuildResponse> Edit =
        Service.handle(fullRequest(Program, Seed, 1));
    ASSERT_TRUE(Edit.ok()) << Edit.text();
    expectMatchesReference(Edit.Value, editedCorpus(Seed, 1));
  }

  BuildServiceStats Stats = Service.stats();
  EXPECT_GT(Stats.Cache.Evictions, 0u);
  EXPECT_GT(Stats.Cache.EvictedBytes, 0u);
  EXPECT_GE(Stats.Cache.PeakMemBytes, Stats.Cache.MemBytes);
}

} // namespace
