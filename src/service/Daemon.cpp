//===- Daemon.cpp - Socket front end for the build service ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "service/Daemon.h"

#include "service/Protocol.h"

#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

using namespace ipra;

Daemon::Daemon(std::string SocketPath, BuildServiceConfig Config)
    : Daemon(Endpoint::unixPath(std::move(SocketPath)), std::move(Config)) {}

Daemon::Daemon(Endpoint E, BuildServiceConfig Config)
    : Listen(std::move(E)), Service(std::move(Config)) {}

Daemon::~Daemon() {
  requestStop();
  wait();
  if (AcceptThread.joinable())
    AcceptThread.join();
  {
    // Move the threads out before joining: a still-running connection
    // thread ends with finishConnection(), which needs ConnMutex —
    // joining it while holding the lock would deadlock.
    std::vector<std::thread> ToJoin;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      ToJoin.reserve(ConnThreads.size());
      for (auto &KV : ConnThreads)
        ToJoin.push_back(std::move(KV.second));
      ConnThreads.clear();
      Finished.clear();
    }
    for (std::thread &T : ToJoin)
      if (T.joinable())
        T.join();
  }
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (!Listen.isTcp() && !Listen.Path.empty())
    ::unlink(Listen.Path.c_str());
}

bool Daemon::start(std::string &Error) {
  ListenFd = listenOn(Listen, Error);
  if (ListenFd < 0)
    return false;
  if (Listen.isTcp()) {
    // Resolve an ephemeral-port listen so tests (and log lines) can
    // dial the daemon back.
    Port = boundPort(ListenFd);
    if (Listen.Port == 0)
      Listen.Port = Port;
  }
  AcceptThread = std::thread([this] { acceptLoop(); });
  return true;
}

void Daemon::reapFinishedLocked() {
  for (std::uint64_t Id : Finished) {
    auto It = ConnThreads.find(Id);
    if (It == ConnThreads.end())
      continue;
    // The owning thread registered itself finished as its last act
    // under ConnMutex; joining here only waits for its epilogue.
    if (It->second.joinable())
      It->second.join();
    ConnThreads.erase(It);
  }
  Finished.clear();
}

void Daemon::acceptLoop() {
  unsigned MaxConns = Service.config().MaxConnections;
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // shutdown() on the listen fd (requestStop) lands here.
      return;
    }
    if (Stopping.load()) {
      ::close(Fd);
      return;
    }
    std::lock_guard<std::mutex> Lock(ConnMutex);
    reapFinishedLocked();
    if (MaxConns != 0 && ConnThreads.size() >= MaxConns) {
      // Over the cap: a typed "busy" reply, then an immediate close —
      // the slow clients already holding slots keep the pool; this one
      // is told to back off rather than silently queued.
      ++Transport.ConnectionsRejected;
      writeFrame(Fd, encodeStatusReply(Status::error(
                         "connection limit reached", "busy")));
      ::close(Fd);
      continue;
    }
    std::uint64_t Id = NextConnId++;
    ++Transport.ConnectionsAccepted;
    ++Transport.ConnectionsActive;
    ConnThreads.emplace(Id,
                        std::thread([this, Id, Fd] { serveConnection(Id, Fd); }));
  }
}

void Daemon::finishConnection(std::uint64_t Id) {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  Finished.push_back(Id);
  --Transport.ConnectionsActive;
}

DaemonStats Daemon::transportStats() const {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  return Transport;
}

void Daemon::serveConnection(std::uint64_t Id, int Fd) {
  // A stuck or malicious peer fails its reads/writes with a timeout
  // instead of pinning this thread (and its MaxConnections slot)
  // forever.
  if (unsigned Deadline = Service.config().IoTimeoutSeconds)
    setIoDeadline(Fd, Deadline);
  if (Listen.isTcp())
    setNoDelay(Fd); // Reply frames must not wait out delayed ACKs.
  std::string Payload;
  for (;;) {
    FrameRead R = readFrameEx(Fd, Payload);
    if (R != FrameRead::Ok) {
      switch (R) {
      case FrameRead::Oversize: {
        // The length prefix exceeded the cap before any allocation;
        // the stream is desynchronized, so reply typed and close.
        {
          std::lock_guard<std::mutex> Lock(ConnMutex);
          ++Transport.ProtocolErrors;
        }
        writeFrame(Fd, encodeStatusReply(Status::error(
                           "frame exceeds 64 MiB limit", "protocol-error")));
        break;
      }
      case FrameRead::Truncated: {
        // Peer vanished mid-frame; nothing coherent to reply to.
        std::lock_guard<std::mutex> Lock(ConnMutex);
        ++Transport.ProtocolErrors;
        break;
      }
      case FrameRead::Timeout: {
        std::lock_guard<std::mutex> Lock(ConnMutex);
        ++Transport.ReadTimeouts;
        break;
      }
      default: // Eof (clean close) or Error.
        break;
      }
      goto done;
    }
    {
      WireKind Kind;
      BuildRequest Req;
      std::string Error;
      if (!decodeRequestEnvelope(Payload, Kind, Req, Error)) {
        // Framing survived, only the JSON is bad: reply and keep the
        // connection, the stream is still synchronized.
        writeFrame(Fd,
                   encodeStatusReply(Status::error(Error, "bad-request")));
        continue;
      }
      switch (Kind) {
      case WireKind::Build: {
        // enqueue, not handle: socket clients share the worker pool and
        // its bounded-queue backpressure with in-process callers.
        Result<BuildResponse> R = Service.enqueue(std::move(Req)).get();
        if (!writeFrame(Fd, encodeBuildReply(R)))
          goto done;
        break;
      }
      case WireKind::Stats: {
        // One flat object: the service's counters, then the transport's.
        json::Value V = json::encode(Service.stats());
        const DaemonStats DS = transportStats();
        DaemonStats::fields(DS, [&V](const char *Key, std::uint64_t N) {
          V.set(Key, json::encode(N));
        });
        if (!writeFrame(Fd, encodeStatsReply(V)))
          goto done;
        break;
      }
      case WireKind::Ping:
        if (!writeFrame(Fd, encodeStatusReply(Status::success())))
          goto done;
        break;
      case WireKind::Shutdown:
        // Acknowledge before draining so the client is not left waiting
        // on a daemon that is busy finishing other clients' work.
        writeFrame(Fd, encodeStatusReply(Status::success()));
        requestStop();
        goto done;
      }
    }
  }
done:
  finishConnection(Id);
  ::close(Fd);
}

void Daemon::requestStop() {
  if (Stopping.exchange(true))
    return;
  // Unblock accept(); no new connections from here on.
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  // Drain on a detached-from-caller thread? No: requestStop can be
  // called from a connection thread (the shutdown envelope), and
  // Service.shutdown() never joins connection threads, so draining
  // inline is deadlock-free. It blocks until admitted work finished.
  Service.shutdown();
  {
    std::lock_guard<std::mutex> Lock(StopMutex);
    Stopped = true;
  }
  StopCV.notify_all();
}

void Daemon::wait() {
  std::unique_lock<std::mutex> Lock(StopMutex);
  StopCV.wait(Lock, [this] { return Stopped; });
}
