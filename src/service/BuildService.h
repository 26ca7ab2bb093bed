//===- BuildService.h - Long-lived IPRA build service ----------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived build service behind `mcc --serve`: a BuildService
/// keeps the expensive pipeline state hot across requests instead of
/// rebuilding it per process —
///
///  - one shared, sharded, content-interning ArtifactCache across every
///    program it serves (summaries/databases/objects; the interned
///    store collapses identical artifacts, e.g. the runtime module's
///    summary, to one resident copy);
///  - one AnalyzerSession per (program, configuration): the retained
///    delta-analysis state, so an edit to a served program re-analyzes
///    only its SCC damage region on the next request;
///  - one Pipeline per (program, configuration fingerprint), rebuilt
///    lazily and cheaply because the heavy state lives in the two
///    objects above.
///
/// Concurrency model: requests for different programs run in parallel
/// on the worker pool; concurrent requests for the same program
/// coalesce — they serialize on the program's build mutex onto the one
/// retained delta state, so the artifacts are byte-identical to running
/// them sequentially. Admission control bounds the queue: past
/// MaxQueueDepth, enqueue() answers immediately with status code
/// "busy" (backpressure, the client retries) instead of growing an
/// unbounded backlog. Shutdown is graceful: draining rejects new work
/// with code "shutdown" while every admitted request still completes.
///
/// The same object serves three transports: in-process calls (handle /
/// enqueue), the mcc CLI, and the socket daemon (Daemon.h) — all speak
/// BuildRequest/BuildResponse.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SERVICE_BUILDSERVICE_H
#define IPRA_SERVICE_BUILDSERVICE_H

#include "core/AnalyzerSession.h"
#include "driver/ArtifactCache.h"
#include "driver/BuildRequest.h"
#include "driver/Pipeline.h"
#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ipra {

struct BuildServiceConfig {
  /// Worker threads draining the request queue. 0 defers to
  /// IPRA_THREADS / the hardware count (support/ThreadPool.h).
  unsigned Workers = 0;
  /// Admission control: requests queued beyond this bound are rejected
  /// with status code "busy" instead of waiting.
  size_t MaxQueueDepth = 256;
  /// Disk directory for the shared artifact cache; empty keeps the
  /// cache memory-only.
  std::string CacheDir;
  /// Bounds for the shared artifact cache (ArtifactCacheConfig). Zero
  /// always means unbounded/disabled.
  size_t CacheMemBudgetBytes = 0;
  size_t CacheDiskBudgetBytes = 0;
  unsigned CacheDiskTTLSeconds = 0;
  /// Retained-session eviction policy: keep at most MaxSessions
  /// (program, configuration) entries alive (least-recently-used
  /// evicted first), and drop any entry idle longer than
  /// SessionIdleSeconds. Zero disables each bound. Evicting a session
  /// only ever degrades the *next* request for it to a cold
  /// (byte-identical) build — or a warm reload when SessionDir is set.
  size_t MaxSessions = 0;
  unsigned SessionIdleSeconds = 0;
  /// Directory for persisted retained sessions (warm restarts,
  /// DESIGN.md §13): sessions are serialized here on graceful shutdown
  /// and on eviction, and reloaded lazily on the first request after a
  /// restart. Empty disables persistence.
  std::string SessionDir;
  /// Daemon transport knobs (consumed by Daemon; ignored for
  /// in-process use): concurrent-connection cap beyond which new
  /// connections are answered "busy" and closed, and the per-connection
  /// socket read/write deadline so a stuck remote peer cannot pin a
  /// connection thread forever.
  size_t MaxConnections = 64;
  unsigned IoTimeoutSeconds = 300;
};

/// One snapshot of the service's observable state (the "stats" wire
/// request renders this as JSON). Its AnalyzerSessionCounters base sums
/// every session's run counters, including sessions since evicted
/// (their totals are folded in at eviction).
struct BuildServiceStats : AnalyzerSessionCounters {
  // Admission / completion accounting.
  unsigned long long Accepted = 0;  ///< Requests admitted for execution.
  unsigned long long Completed = 0; ///< Finished with Ok status.
  unsigned long long Failed = 0;    ///< Finished with a failure status.
  unsigned long long RejectedBusy = 0;     ///< Bounced by backpressure.
  unsigned long long RejectedShutdown = 0; ///< Bounced while draining.
  /// Requests that found their program's build lock held and waited
  /// (same-program coalescing onto the retained state).
  unsigned long long Coalesced = 0;
  size_t QueueDepth = 0;     ///< Queued, not yet executing.
  size_t PeakQueueDepth = 0; ///< High-water mark since startup.
  unsigned Workers = 0;
  // Retained-state accounting.
  size_t Programs = 0;  ///< Distinct program ids seen.
  size_t Pipelines = 0; ///< Retained (program, config) pipelines.
  // Session lifecycle: live retained entries, their high-water mark,
  // LRU/idle evictions, and warm-restart persistence traffic.
  size_t RetainedSessions = 0;
  size_t PeakRetainedSessions = 0;
  unsigned long long SessionsEvicted = 0;
  unsigned long long SessionsPersisted = 0; ///< Session files written.
  // Request-level per-phase latency sums (milliseconds), over completed
  // requests; divide by Completed+Failed for means. Per-request values
  // ride in each BuildResponse::Stats.
  unsigned long long Requests = 0;
  double TotalMsSum = 0;
  double Phase1MsSum = 0;
  double AnalyzerMsSum = 0;
  double Phase2MsSum = 0;
  double LinkMsSum = 0;
  ArtifactCacheStats Cache;

  /// Every field with its stable kebab-case key (support/Json.h's
  /// Record; the "stats" wire request replies with json::encode).
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("accepted", S.Accepted);
    V("completed", S.Completed);
    V("failed", S.Failed);
    V("rejected-busy", S.RejectedBusy);
    V("rejected-shutdown", S.RejectedShutdown);
    V("coalesced", S.Coalesced);
    V("queue-depth", S.QueueDepth);
    V("peak-queue-depth", S.PeakQueueDepth);
    V("workers", S.Workers);
    V("programs", S.Programs);
    V("pipelines", S.Pipelines);
    AnalyzerSessionCounters::fields(S, V);
    V("retained-sessions", S.RetainedSessions);
    V("peak-retained-sessions", S.PeakRetainedSessions);
    V("sessions-evicted", S.SessionsEvicted);
    V("sessions-persisted", S.SessionsPersisted);
    V("requests", S.Requests);
    V("total-ms-sum", S.TotalMsSum);
    V("phase1-ms-sum", S.Phase1MsSum);
    V("analyzer-ms-sum", S.AnalyzerMsSum);
    V("phase2-ms-sum", S.Phase2MsSum);
    V("link-ms-sum", S.LinkMsSum);
    V("cache", S.Cache);
  }
};

/// The long-lived build service. Thread-safe; one instance serves
/// arbitrarily many concurrent callers.
class BuildService {
public:
  explicit BuildService(BuildServiceConfig Config = BuildServiceConfig());
  ~BuildService(); ///< Graceful: drains admitted work, joins workers.

  BuildService(const BuildService &) = delete;
  BuildService &operator=(const BuildService &) = delete;

  /// Executes \p Req synchronously on the calling thread (the workers
  /// funnel through here too). Serializes with other requests for the
  /// same program; runs in parallel with other programs. Fails with
  /// code "shutdown" while draining.
  Result<BuildResponse> handle(const BuildRequest &Req);

  /// Queues \p Req for a worker. The future is immediately ready with
  /// code "busy" when the queue is at MaxQueueDepth, and with code
  /// "shutdown" while draining.
  std::future<Result<BuildResponse>> enqueue(BuildRequest Req);

  /// Stops admitting work (handle and enqueue fail with "shutdown"),
  /// drains every admitted request, joins the workers, and — when
  /// SessionDir is configured — persists every retained session so the
  /// next daemon keeps the delta path. Idempotent.
  void shutdown();

  BuildServiceStats stats() const;
  ArtifactCache &cache() { return *Cache; }
  const BuildServiceConfig &config() const { return Config; }

private:
  /// Per-program retained state: the build lock requests coalesce on,
  /// plus the per-configuration pipelines and analyzer sessions. The
  /// ProgramState shell itself is never evicted (its BuildMutex is the
  /// coalescing identity an in-flight request may hold); eviction drops
  /// Entries values only.
  struct ProgramState {
    std::mutex BuildMutex;
    std::mutex MapMutex; ///< Guards Entries only.
    struct Entry {
      std::shared_ptr<Pipeline> Pipe;
      std::shared_ptr<AnalyzerSession> Session;
      /// LRU stamp (global monotone use counter) and wall point of the
      /// last pipelineFor() touch, for the eviction policy.
      std::uint64_t LastUseStamp = 0;
      std::chrono::steady_clock::time_point LastUsedAt;
    };
    /// Keyed by PipelineConfig::fingerprint(); NumThreads / CacheDir /
    /// DeltaAnalysis do not fingerprint, so requests differing only in
    /// those share one retained state (their artifacts are identical).
    std::map<std::string, Entry> Entries;
  };

  std::shared_ptr<ProgramState> programFor(const std::string &Program);
  std::shared_ptr<Pipeline> pipelineFor(ProgramState &PS,
                                        const std::string &Program,
                                        const PipelineConfig &Config);
  /// handle() minus the admission check: executes unconditionally.
  /// Workers and the shutdown drain use it so work admitted before a
  /// drain began still completes.
  Result<BuildResponse> run(const BuildRequest &Req);
  void workerLoop();
  /// Applies the LRU/idle eviction policy: drops idle (unreferenced)
  /// session entries over MaxSessions (least recently used first) and
  /// entries idle past SessionIdleSeconds, persisting each first when
  /// SessionDir is set and folding its run counters into the service
  /// totals. Called after every completed request; cheap when both
  /// bounds are disabled.
  void maybeEvictSessions();
  /// Serializes one session into SessionDir (atomic temp + rename).
  /// Returns true when a file was written.
  bool persistSession(const std::string &Program, const std::string &Key,
                      AnalyzerSession &Session);
  /// Persisted-session file path for (program, fingerprint).
  std::string sessionPathFor(const std::string &Program,
                             const std::string &Key) const;

  BuildServiceConfig Config;
  std::shared_ptr<ArtifactCache> Cache;

  mutable std::mutex ProgramsMutex;
  std::map<std::string, std::shared_ptr<ProgramState>> Programs;

  struct Job {
    BuildRequest Req;
    std::promise<Result<BuildResponse>> Done;
  };
  mutable std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<Job> Queue;
  bool Draining = false;
  std::vector<std::thread> WorkerThreads;

  // Counters. Guarded by StatsMutex (latency sums are doubles, and a
  // snapshot must be coherent). Their AnalyzerSessionCounters base holds
  // the run totals of evicted sessions, so eviction never loses
  // accounting; stats() adds the live sessions' counters to it.
  mutable std::mutex StatsMutex;
  BuildServiceStats Counters;
  std::atomic<std::uint64_t> UseStamp{0}; ///< Global LRU clock.
};

} // namespace ipra

#endif // IPRA_SERVICE_BUILDSERVICE_H
