//===- daemon_test.cpp - Socket daemon end-to-end tests -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The AF_UNIX transport end-to-end: a real daemon on a real socket,
// real clients. Builds over the wire are byte-identical to in-process
// builds, concurrent clients are served, malformed frames answer
// "bad-request" without killing the connection, and a shutdown request
// acknowledges, drains, and unblocks wait().
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"

#include "ServiceTestUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace ipra;
using namespace ipra::servicetest;

namespace {

/// A daemon on a socket inside a self-cleaning temp dir.
class DaemonFixture {
public:
  explicit DaemonFixture(const std::string &Tag,
                         BuildServiceConfig Config = {})
      : Dir(Tag), D(Dir.str() + "/ipra.sock", Config) {
    std::string Error;
    Started = D.start(Error);
    EXPECT_TRUE(Started) << Error;
  }
  Daemon &daemon() { return D; }
  const std::string &socket() const { return D.socketPath(); }
  bool started() const { return Started; }

private:
  TempDir Dir;
  Daemon D;
  bool Started = false;
};

/// Connects a raw fd to \p Path (for sending deliberately bad frames).
int rawConnect(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

TEST(DaemonTest, PingAndStats) {
  DaemonFixture F("ping");
  ASSERT_TRUE(F.started());
  ServiceClient C;
  ASSERT_TRUE(C.connect(F.socket()).ok());
  EXPECT_TRUE(C.ping().ok());

  Result<json::Value> Stats = C.stats();
  ASSERT_TRUE(Stats.ok()) << Stats.text();
  const json::Value *Workers = Stats.Value.find("workers");
  ASSERT_NE(Workers, nullptr);
  EXPECT_GE(Workers->asInt(), 1);
  EXPECT_NE(Stats.Value.find("delta-hits"), nullptr);
  EXPECT_NE(Stats.Value.find("cache"), nullptr);
}

TEST(DaemonTest, WireBuildMatchesInProcessBuild) {
  DaemonFixture F("build");
  ASSERT_TRUE(F.started());
  ServiceClient C;
  ASSERT_TRUE(C.connect(F.socket()).ok());

  Result<BuildResponse> R = C.request(BuildRequest::full(
      PipelineConfig::configC(), corpus(5), "wire-prog"));
  ASSERT_TRUE(R.ok()) << R.text();

  BuildResult Ref = referenceBuild(corpus(5));
  ASSERT_TRUE(Ref.ok());
  EXPECT_EQ(R.Value.Database, Ref.DatabaseFile);
  ASSERT_EQ(R.Value.Objects.size(), Ref.ObjectFiles.size());
  for (size_t I = 0; I < Ref.ObjectFiles.size(); ++I)
    EXPECT_EQ(R.Value.Objects[I], Ref.ObjectFiles[I]) << "object " << I;
  // The executable stays on the server side.
  EXPECT_TRUE(R.Value.Exe.Code.empty());
}

TEST(DaemonTest, OneConnectionManyRequests) {
  DaemonFixture F("session");
  ASSERT_TRUE(F.started());
  ServiceClient C;
  ASSERT_TRUE(C.connect(F.socket()).ok());

  // Build, rebuild (cached), edit (delta) over one connection.
  ASSERT_TRUE(C.request(BuildRequest::full(PipelineConfig::configC(),
                                           corpus(7), "p"))
                  .ok());
  Result<BuildResponse> Again = C.request(BuildRequest::full(
      PipelineConfig::configC(), corpus(7), "p"));
  ASSERT_TRUE(Again.ok()) << Again.text();
  EXPECT_TRUE(Again.Value.FromCache);

  Result<BuildResponse> Edited = C.request(BuildRequest::full(
      PipelineConfig::configC(), editedCorpus(7, 1), "p"));
  ASSERT_TRUE(Edited.ok()) << Edited.text();
  EXPECT_EQ(Edited.Value.Stats.AnalyzerMode, "delta")
      << "fallback: " << Edited.Value.Delta.FallbackReason;

  Result<json::Value> Stats = C.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_GE(Stats.Value.find("delta-hits")->asInt(), 1);
  EXPECT_EQ(Stats.Value.find("completed")->asInt(), 3);
}

TEST(DaemonTest, ConcurrentClients) {
  DaemonFixture F("many");
  ASSERT_TRUE(F.started());

  constexpr int N = 4;
  std::vector<std::thread> Threads;
  std::vector<std::string> Errors(N);
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      ServiceClient C;
      Status S = C.connect(F.socket());
      if (!S.ok()) {
        Errors[I] = S.text();
        return;
      }
      Result<BuildResponse> R = C.request(BuildRequest::full(
          PipelineConfig::configC(), corpus(I),
          "client" + std::to_string(I)));
      if (!R.ok())
        Errors[I] = R.text();
      else if (R.Value.Database.empty())
        Errors[I] = "empty database";
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(Errors[I], "") << "client " << I;
}

TEST(DaemonTest, MalformedFrameAnswersBadRequestAndKeepsConnection) {
  DaemonFixture F("bad");
  ASSERT_TRUE(F.started());
  int Fd = rawConnect(F.socket());
  ASSERT_GE(Fd, 0);

  // Garbage JSON: a status reply with code "bad-request".
  ASSERT_TRUE(writeFrame(Fd, "this is not json"));
  std::string Reply;
  ASSERT_TRUE(readFrame(Fd, Reply));
  Status S = decodeStatusReply(Reply);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.Code, "bad-request");

  // The connection survives: a well-formed ping still works on it.
  ASSERT_TRUE(writeFrame(Fd, encodeControlRequest(WireKind::Ping)));
  ASSERT_TRUE(readFrame(Fd, Reply));
  EXPECT_TRUE(decodeStatusReply(Reply).ok());
  ::close(Fd);
}

TEST(DaemonTest, ShutdownAcksDrainsAndUnblocksWait) {
  auto F = std::make_unique<DaemonFixture>("stop");
  ASSERT_TRUE(F->started());

  ServiceClient C;
  ASSERT_TRUE(C.connect(F->socket()).ok());
  ASSERT_TRUE(C.request(BuildRequest::full(PipelineConfig::configC(),
                                           corpus(1), "p"))
                  .ok());

  // The shutdown request is acknowledged...
  EXPECT_TRUE(C.shutdownServer().ok());
  // ...and wait() returns (the watchdog thread would hang forever on a
  // regression; gtest's default timeout converts that into a failure).
  F->daemon().wait();

  // A drained daemon no longer accepts work.
  Result<BuildResponse> After = F->daemon().service().handle(
      BuildRequest::full(PipelineConfig::configC(), corpus(1), "p"));
  EXPECT_FALSE(After.ok());
  EXPECT_EQ(After.Code, "shutdown");
  F.reset(); // Destructor after wire shutdown is clean.
}

TEST(DaemonTest, StalePathIsReclaimedOnStart) {
  TempDir Dir("stale");
  std::string Path = Dir.str() + "/ipra.sock";
  {
    Daemon First(Path, BuildServiceConfig{});
    std::string Error;
    ASSERT_TRUE(First.start(Error)) << Error;
    First.requestStop();
  }
  // The first daemon is gone; its socket path must not block a second.
  Daemon Second(Path, BuildServiceConfig{});
  std::string Error;
  ASSERT_TRUE(Second.start(Error)) << Error;
  ServiceClient C;
  ASSERT_TRUE(C.connect(Path).ok());
  EXPECT_TRUE(C.ping().ok());
}

} // namespace
