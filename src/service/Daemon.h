//===- Daemon.h - Socket front end for the build service -------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stream-socket transport around BuildService (`mcc --serve
/// <socket>` / `mcc --serve --listen host:port`): an accept loop hands
/// each connection to its own thread, which reads length-prefixed JSON
/// frames (service/Protocol.h), funnels build requests through
/// BuildService::enqueue (so socket clients share the worker pool, the
/// bounded queue, and the "busy" backpressure with in-process callers),
/// and answers stats/ping/shutdown envelopes inline. A "shutdown"
/// request acknowledges, stops the accept loop, drains the service, and
/// unblocks wait().
///
/// The daemon is transport-agnostic above the Endpoint (Transport.h):
/// the same frame loop serves AF_UNIX and TCP. Two guards keep remote
/// clients from wedging the worker pool: per-connection read/write
/// deadlines (BuildServiceConfig::IoTimeoutSeconds; a stuck peer's
/// thread exits on FrameRead::Timeout) and a max-connections cap
/// (BuildServiceConfig::MaxConnections; an over-cap accept gets a
/// typed "busy" status reply and an immediate close). A frame whose
/// declared length exceeds MaxFrameBytes draws a typed
/// "protocol-error" reply and a close — the stream is desynchronized,
/// but nothing was allocated or read for it.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SERVICE_DAEMON_H
#define IPRA_SERVICE_DAEMON_H

#include "service/BuildService.h"
#include "service/Transport.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ipra {

/// Transport-level counters, reported alongside BuildServiceStats in
/// the wire stats reply (they describe the socket front end, which
/// in-process callers never touch).
struct DaemonStats {
  std::uint64_t ConnectionsAccepted = 0; ///< Served connections.
  std::uint64_t ConnectionsRejected = 0; ///< Over-cap "busy" closes.
  std::uint64_t ConnectionsActive = 0;   ///< Currently serving.
  std::uint64_t ProtocolErrors = 0;      ///< Oversize/truncated frames.
  std::uint64_t ReadTimeouts = 0;        ///< Idle-peer deadline fires.

  /// Every field with its key (support/Json.h's Record).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("connections-accepted", S.ConnectionsAccepted);
    V("connections-rejected", S.ConnectionsRejected);
    V("connections-active", S.ConnectionsActive);
    V("protocol-errors", S.ProtocolErrors);
    V("read-timeouts", S.ReadTimeouts);
  }
};

/// A build daemon listening on one stream endpoint (unix or TCP).
class Daemon {
public:
  /// Unix-socket daemon (the original `--serve <path>` form).
  Daemon(std::string SocketPath, BuildServiceConfig Config);
  /// Daemon on an arbitrary endpoint (`--listen host:port` lands here).
  Daemon(Endpoint E, BuildServiceConfig Config);
  ~Daemon(); ///< Stops, drains, unlinks a unix socket.

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds, listens, and spawns the accept thread. Returns false with
  /// \p Error set (stale socket path, overlong path, port in use, ...).
  bool start(std::string &Error);

  /// Blocks until a shutdown request arrives (over the wire or via
  /// requestStop) and the service has drained.
  void wait();

  /// Initiates the same graceful shutdown a wire request does.
  void requestStop();

  const Endpoint &endpoint() const { return Listen; }
  /// Unix path ("" for TCP daemons); kept for existing callers.
  const std::string &socketPath() const { return Listen.Path; }
  /// The TCP port actually bound (resolves an ephemeral-port listen);
  /// 0 for unix daemons or before start().
  int port() const { return Port; }
  BuildService &service() { return Service; }
  DaemonStats transportStats() const;

private:
  void acceptLoop();
  void serveConnection(std::uint64_t Id, int Fd);
  void finishConnection(std::uint64_t Id);
  void reapFinishedLocked();

  Endpoint Listen;
  BuildService Service;
  int ListenFd = -1;
  int Port = 0;
  std::atomic<bool> Stopping{false};
  std::thread AcceptThread;

  mutable std::mutex ConnMutex;
  std::map<std::uint64_t, std::thread> ConnThreads;
  std::vector<std::uint64_t> Finished; ///< Ids ready to join+erase.
  std::uint64_t NextConnId = 0;
  DaemonStats Transport;

  std::mutex StopMutex;
  std::condition_variable StopCV;
  bool Stopped = false;
};

} // namespace ipra

#endif // IPRA_SERVICE_DAEMON_H
