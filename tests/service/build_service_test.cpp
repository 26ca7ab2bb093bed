//===- build_service_test.cpp - Build service behavior tests --------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The long-lived build service's contract, tested in-process:
//
//  - every response is byte-identical to a one-shot cold build of the
//    same sources, no matter how requests for the same program
//    interleave (the session-coalescing guarantee);
//  - the retained delta state actually fires: a summary-visible edit to
//    a served program takes the damage-region path, not a full re-run;
//  - admission control answers "busy" past the queue bound and
//    "shutdown" while draining, while every admitted request completes;
//  - the shared cache serves one program's artifacts to another
//    (the interned runtime module).
//
//===----------------------------------------------------------------------===//

#include "service/BuildService.h"

#include "ServiceTestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

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

TEST(BuildServiceTest, BuildRebuildAndDeltaEdit) {
  BuildServiceConfig SC;
  SC.Workers = 2;
  BuildService Service(SC);

  // Cold build.
  Result<BuildResponse> First = Service.handle(fullRequest("prog", 1));
  ASSERT_TRUE(First.ok()) << First.text();
  EXPECT_FALSE(First.Value.Objects.empty());
  EXPECT_FALSE(First.Value.Database.empty());
  expectMatchesReference(First.Value, corpus(1));

  // Identical rebuild: everything from the cache.
  Result<BuildResponse> Again = Service.handle(fullRequest("prog", 1));
  ASSERT_TRUE(Again.ok()) << Again.text();
  EXPECT_TRUE(Again.Value.FromCache);
  EXPECT_EQ(Again.Value.Database, First.Value.Database);

  // A summary-visible edit takes the retained delta path.
  Result<BuildResponse> Edited =
      Service.handle(fullRequest("prog", 1, /*Version=*/1));
  ASSERT_TRUE(Edited.ok()) << Edited.text();
  EXPECT_EQ(Edited.Value.Stats.AnalyzerMode, "delta")
      << "fallback: " << Edited.Value.Delta.FallbackReason;
  expectMatchesReference(Edited.Value, editedCorpus(1, 1));

  BuildServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Programs, 1u);
  EXPECT_EQ(Stats.Pipelines, 1u);
  EXPECT_GT(Stats.DeltaHits, 0u);
  EXPECT_EQ(Stats.Completed, 3u);
  EXPECT_EQ(Stats.Failed, 0u);
}

// A lint request travels the same worker path as a build but returns
// diagnostics instead of objects; a clean program returns none.
TEST(BuildServiceTest, LintRequestReturnsDiagnostics) {
  BuildService Service;
  std::vector<SourceFile> Seeded = {
      {"m.mc", "int g_dead;\n"
               "void orphan() {}\n"
               "int main() { return 0; }\n"}};
  Result<BuildResponse> R = Service.handle(
      BuildRequest::lint(PipelineConfig::configC(), Seeded, "seeded"));
  ASSERT_TRUE(R.ok()) << R.text();
  ASSERT_EQ(R.Value.Lints.size(), 2u) << R.Value.Lints.size();
  EXPECT_EQ(R.Value.Lints[0],
            "lint: dead-proc: orphan: no call chain from the program "
            "entry reaches this procedure");
  EXPECT_EQ(R.Value.Lints.size(), R.Value.LintsJson.size());
  EXPECT_TRUE(R.Value.Objects.empty());

  std::vector<SourceFile> Clean = {
      {"m.mc", "int main() { return 0; }\n"}};
  Result<BuildResponse> C = Service.handle(
      BuildRequest::lint(PipelineConfig::configC(), Clean, "clean"));
  ASSERT_TRUE(C.ok()) << C.text();
  EXPECT_TRUE(C.Value.Lints.empty()) << C.Value.Lints[0];
}

TEST(BuildServiceTest, DistinctProgramsGetDistinctSessions) {
  BuildService Service;
  Result<BuildResponse> A = Service.handle(fullRequest("a", 1));
  Result<BuildResponse> B = Service.handle(fullRequest("b", 2));
  ASSERT_TRUE(A.ok()) << A.text();
  ASSERT_TRUE(B.ok()) << B.text();
  EXPECT_NE(A.Value.Database, B.Value.Database)
      << "different seeds must produce different programs";
  BuildServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Programs, 2u);
  EXPECT_EQ(Stats.Pipelines, 2u);
}

TEST(BuildServiceTest, SharedCacheServesTheRuntimeAcrossPrograms) {
  BuildService Service;
  ASSERT_TRUE(Service.handle(fullRequest("a", 1)).ok());
  Result<BuildResponse> B = Service.handle(fullRequest("b", 2));
  ASSERT_TRUE(B.ok()) << B.text();
  // Program b's first build already hits phase-1 cache entries: the
  // runtime module is identical across programs, and the shared cache
  // interns it service-wide.
  EXPECT_GT(B.Value.Stats.Phase1CacheHits, 0u);
  EXPECT_GT(Service.stats().Cache.InternHits, 0u);
}

// The tentpole concurrency guarantee: two concurrent edit storms to the
// same program serialize onto the one retained delta state, and every
// response is byte-identical to a cold one-shot build of exactly the
// sources it carried — as if the requests had run sequentially.
TEST(BuildServiceTest, ConcurrentSameProgramEditsSerializeByteIdentical) {
  BuildServiceConfig SC;
  SC.Workers = 4;
  SC.MaxQueueDepth = 64;
  BuildService Service(SC);

  // Prime the retained state.
  ASSERT_TRUE(Service.handle(fullRequest("prog", 3)).ok());

  // Sequential references, one per version.
  BuildResult Ref1 = referenceBuild(editedCorpus(3, 1));
  BuildResult Ref2 = referenceBuild(editedCorpus(3, 2));
  ASSERT_TRUE(Ref1.ok() && Ref2.ok());
  ASSERT_NE(Ref1.DatabaseFile, Ref2.DatabaseFile)
      << "the two edit versions must be distinguishable";

  // 16 concurrent requests alternating between two edit versions.
  // Whether two workers actually collide on the program's build lock in
  // any single storm is a scheduling race (cache-served requests take
  // microseconds), so storm repeatedly until contention was observed —
  // every storm's responses must be byte-identical regardless.
  constexpr int N = 16;
  constexpr int MaxStorms = 8;
  int Storms = 0;
  while (Storms < MaxStorms) {
    std::vector<std::future<Result<BuildResponse>>> Futures;
    for (int I = 0; I < N; ++I)
      Futures.push_back(
          Service.enqueue(fullRequest("prog", 3, /*Version=*/1 + I % 2)));

    std::vector<Result<BuildResponse>> Results;
    for (auto &F : Futures)
      Results.push_back(F.get());
    ++Storms;

    for (int I = 0; I < N; ++I) {
      ASSERT_TRUE(Results[I].ok()) << "request " << I << ": "
                                   << Results[I].text();
      const BuildResult &Ref = (1 + I % 2) == 1 ? Ref1 : Ref2;
      EXPECT_EQ(Results[I].Value.Database, Ref.DatabaseFile)
          << "request " << I;
      ASSERT_EQ(Results[I].Value.Objects.size(), Ref.ObjectFiles.size());
      for (size_t J = 0; J < Ref.ObjectFiles.size(); ++J)
        EXPECT_EQ(Results[I].Value.Objects[J], Ref.ObjectFiles[J])
            << "request " << I << " object " << J;
    }
    if (Service.stats().Coalesced > 0)
      break;
  }

  BuildServiceStats Stats = Service.stats();
  // One program, one retained session; the storms coalesced onto it.
  EXPECT_EQ(Stats.Programs, 1u);
  EXPECT_EQ(Stats.Pipelines, 1u);
  EXPECT_GT(Stats.Coalesced, 0u)
      << "no two of " << Storms * N << " concurrent same-program "
      << "requests over 4 workers ever contended for the build lock";
  EXPECT_GT(Stats.DeltaHits, 0u);
  EXPECT_EQ(Stats.Completed, 1u + static_cast<unsigned>(Storms) * N);
}

TEST(BuildServiceTest, DifferentProgramsBuildConcurrently) {
  BuildServiceConfig SC;
  SC.Workers = 4;
  SC.MaxQueueDepth = 64;
  BuildService Service(SC);

  constexpr int N = 8;
  std::vector<std::future<Result<BuildResponse>>> Futures;
  for (int I = 0; I < N; ++I)
    Futures.push_back(
        Service.enqueue(fullRequest("p" + std::to_string(I), I)));
  for (int I = 0; I < N; ++I) {
    Result<BuildResponse> R = Futures[I].get();
    ASSERT_TRUE(R.ok()) << "program " << I << ": " << R.text();
    expectMatchesReference(R.Value, corpus(I));
  }
  EXPECT_EQ(Service.stats().Programs, static_cast<size_t>(N));
}

TEST(BuildServiceTest, ZeroDepthQueueAnswersBusy) {
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 0; // Admission control rejects every enqueue.
  BuildService Service(SC);

  Result<BuildResponse> R = Service.enqueue(fullRequest("p", 1)).get();
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Code, "busy");
  EXPECT_NE(R.text().find("retry"), std::string::npos);
  EXPECT_GT(Service.stats().RejectedBusy, 0u);

  // handle() bypasses the queue: synchronous callers still build.
  EXPECT_TRUE(Service.handle(fullRequest("p", 1)).ok());
}

TEST(BuildServiceTest, FloodPastTheBoundSheddsLoadButCompletesTheRest) {
  BuildServiceConfig SC;
  SC.Workers = 1;
  SC.MaxQueueDepth = 2;
  BuildService Service(SC);

  constexpr int N = 24;
  std::vector<std::future<Result<BuildResponse>>> Futures;
  for (int I = 0; I < N; ++I)
    Futures.push_back(
        Service.enqueue(fullRequest("p" + std::to_string(I % 4), I % 4)));

  int OkCount = 0, BusyCount = 0;
  for (auto &F : Futures) {
    Result<BuildResponse> R = F.get();
    if (R.ok())
      ++OkCount;
    else {
      EXPECT_EQ(R.Code, "busy") << R.text();
      ++BusyCount;
    }
  }
  // Enqueueing is far faster than a build, so a single worker behind a
  // depth-2 queue must shed most of the flood — and whatever it
  // admitted it finished.
  EXPECT_GT(BusyCount, 0);
  EXPECT_GT(OkCount, 0);
  EXPECT_EQ(OkCount + BusyCount, N);
  BuildServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.RejectedBusy, static_cast<unsigned long long>(BusyCount));
  EXPECT_EQ(Stats.Completed, static_cast<unsigned long long>(OkCount));
  EXPECT_LE(Stats.PeakQueueDepth, 2u);
}

TEST(BuildServiceTest, ShutdownDrainsAdmittedWorkAndRejectsNew) {
  auto Service = std::make_unique<BuildService>([] {
    BuildServiceConfig SC;
    SC.Workers = 2;
    SC.MaxQueueDepth = 64;
    return SC;
  }());

  std::vector<std::future<Result<BuildResponse>>> Futures;
  for (int I = 0; I < 6; ++I)
    Futures.push_back(
        Service->enqueue(fullRequest("p" + std::to_string(I), I)));
  Service->shutdown();

  // Every admitted future resolved with a real result.
  for (auto &F : Futures) {
    Result<BuildResponse> R = F.get();
    EXPECT_TRUE(R.ok()) << R.text();
  }

  // New work is rejected with the machine-readable drain code on both
  // entry points.
  Result<BuildResponse> Sync = Service->handle(fullRequest("p", 1));
  EXPECT_FALSE(Sync.ok());
  EXPECT_EQ(Sync.Code, "shutdown");
  Result<BuildResponse> Queued = Service->enqueue(fullRequest("p", 1)).get();
  EXPECT_FALSE(Queued.ok());
  EXPECT_EQ(Queued.Code, "shutdown");
  EXPECT_GE(Service->stats().RejectedShutdown, 2u);

  Service->shutdown(); // Idempotent.
  Service.reset();     // Destructor after explicit shutdown is clean.
}

TEST(BuildServiceTest, FrontEndErrorsComeBackAsFailedStatus) {
  BuildService Service;
  BuildRequest Bad = BuildRequest::full(
      PipelineConfig::configC(),
      {SourceFile{"bad.mc", "int main( { return }\n"}}, "bad");
  Result<BuildResponse> R = Service.handle(Bad);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.text().empty());
  EXPECT_TRUE(R.Code.empty()) << "compile errors are not service codes";
  EXPECT_GT(Service.stats().Failed, 0u);
}

// Pipeline::execute's config guard: a request whose configuration does
// not match the pipeline it reaches fails with "config-mismatch"
// (the service never routes such a request, but the guard is what makes
// that property checkable).
TEST(BuildServiceTest, PipelineRejectsConfigMismatch) {
  Pipeline P(PipelineConfig::configC());
  BuildRequest Req = fullRequest("p", 1);
  Req.Config = PipelineConfig::configA();
  Result<BuildResponse> R = P.execute(Req);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.Code, "config-mismatch");

  // Link requests are config-independent and skip the guard.
  BuildResult Built = referenceBuild(corpus(1));
  ASSERT_TRUE(Built.ok());
  Result<BuildResponse> Linked =
      P.execute(BuildRequest::link(Built.ObjectFiles, "p"));
  EXPECT_TRUE(Linked.ok()) << Linked.text();
  EXPECT_FALSE(Linked.Value.Exe.Code.empty());
}

} // namespace
