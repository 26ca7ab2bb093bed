//===- BuildService.cpp - Long-lived IPRA build service -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "service/BuildService.h"

#include "support/FileIO.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Record.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

using namespace ipra;

namespace fs = std::filesystem;

namespace {

/// A session file is this header on one line, then the retained run
/// (DeltaAnalyzer::serializeRetained). Version 1 was a line-oriented
/// header; its first line is not JSON, so it is rejected.
constexpr const char *SessionFormat = "ipra-session";
constexpr int SessionFormatVersion = 2;

/// The session file's first line (support/Json.h's Record): the exact
/// (program, configuration fingerprint) pair the file was written for.
struct SessionHeader {
  std::string Format;
  int Version = 0;
  std::string Program;
  std::string Config;

  bool operator==(const SessionHeader &) const = default;

  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("format", S.Format);
    V("version", S.Version);
    V("program", S.Program);
    V("config", S.Config);
  }
};

} // namespace

BuildService::BuildService(BuildServiceConfig Config_)
    : Config(Config_),
      Cache(std::make_shared<ArtifactCache>(ArtifactCacheConfig{
          Config_.CacheDir, Config_.CacheMemBudgetBytes,
          Config_.CacheDiskBudgetBytes, Config_.CacheDiskTTLSeconds})) {
  unsigned N = Config.Workers ? Config.Workers
                              : resolveThreadCount(0);
  Config.Workers = N;
  WorkerThreads.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
}

BuildService::~BuildService() { shutdown(); }

std::shared_ptr<BuildService::ProgramState>
BuildService::programFor(const std::string &Program) {
  std::lock_guard<std::mutex> Lock(ProgramsMutex);
  auto &Slot = Programs[Program];
  if (!Slot)
    Slot = std::make_shared<ProgramState>();
  return Slot;
}

std::string BuildService::sessionPathFor(const std::string &Program,
                                         const std::string &Key) const {
  // The program id is arbitrary client text; hash it into the file
  // name. The file's own header re-checks the exact (program, key)
  // pair, so a hash collision degrades to a header mismatch — a cold
  // build — never a wrong restore.
  return (fs::path(Config.SessionDir) /
          (hashHex(Program) + "-" + Key + ".session"))
      .string();
}

std::shared_ptr<Pipeline>
BuildService::pipelineFor(ProgramState &PS, const std::string &Program,
                          const PipelineConfig &Config_) {
  std::string Key = Config_.fingerprint();
  std::lock_guard<std::mutex> Lock(PS.MapMutex);
  auto It = PS.Entries.find(Key);
  if (It != PS.Entries.end()) {
    It->second.LastUseStamp =
        UseStamp.fetch_add(1, std::memory_order_relaxed) + 1;
    It->second.LastUsedAt = std::chrono::steady_clock::now();
    return It->second.Pipe;
  }
  // The service owns cache placement and always retains delta state;
  // everything else comes from the request so a config flip creates a
  // correctly-fingerprinted sibling entry.
  PipelineConfig Effective = Config_;
  Effective.CacheDir.clear(); // The shared cache is injected below.
  Effective.DeltaAnalysis = true;
  ProgramState::Entry E;
  E.Session = std::make_shared<AnalyzerSession>();
  // Warm restart: a session persisted by a previous daemon (or a
  // previous eviction) is parked on the fresh session and consumed by
  // its first analyze() call. Any mismatch along the way — missing
  // file, wrong header, stale blob format — falls back to the cold
  // prime path of an ordinary new session.
  if (std::string Bytes; !Config.SessionDir.empty() &&
                         readFile(sessionPathFor(Program, Key), Bytes)) {
    SessionHeader H;
    std::string_view Run;
    if (json::readHeaderLine(Bytes, H, Run) &&
        H == SessionHeader{SessionFormat, SessionFormatVersion, Program, Key}) {
      Bytes.erase(0, Bytes.size() - Run.size());
      E.Session->setPendingRestore(std::move(Bytes));
    } else {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.RestoresRejected;
    }
  }
  E.Pipe = std::make_shared<Pipeline>(Effective, Cache, E.Session);
  E.LastUseStamp = UseStamp.fetch_add(1, std::memory_order_relaxed) + 1;
  E.LastUsedAt = std::chrono::steady_clock::now();
  auto Inserted = PS.Entries.emplace(Key, E);
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    // Racy-but-close live count for the peak (exact count would need
    // every MapMutex); stats() reports the exact live number.
    size_t Live = ++Counters.RetainedSessions;
    Counters.PeakRetainedSessions =
        std::max(Counters.PeakRetainedSessions, Live);
  }
  return Inserted.first->second.Pipe;
}

Result<BuildResponse> BuildService::handle(const BuildRequest &Req) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Draining) {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.RejectedShutdown;
      return Result<BuildResponse>::failure(
          "build service is shutting down", "shutdown");
    }
  }
  return run(Req);
}

Result<BuildResponse> BuildService::run(const BuildRequest &Req) {
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.Accepted;
  }

  std::shared_ptr<ProgramState> PS = programFor(Req.Program);
  std::shared_ptr<Pipeline> Pipe = pipelineFor(*PS, Req.Program, Req.Config);

  // Same-program requests coalesce here: they serialize onto the one
  // retained delta state, so concurrent edits produce byte-identical
  // databases to running them one after the other.
  std::unique_lock<std::mutex> BuildLock(PS->BuildMutex, std::try_to_lock);
  if (!BuildLock.owns_lock()) {
    {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.Coalesced;
    }
    BuildLock.lock();
  }
  Result<BuildResponse> R = Pipe->execute(Req);
  BuildLock.unlock();

  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    if (R.ok())
      ++Counters.Completed;
    else
      ++Counters.Failed;
    ++Counters.Requests;
    Counters.TotalMsSum += R.Value.Stats.TotalMs;
    Counters.Phase1MsSum += R.Value.Stats.Phase1Ms;
    Counters.AnalyzerMsSum += R.Value.Stats.AnalyzerMs;
    Counters.Phase2MsSum += R.Value.Stats.Phase2Ms;
    Counters.LinkMsSum += R.Value.Stats.LinkMs;
  }

  // Release our references before sweeping so this request's own entry
  // is evictable the moment it goes idle.
  Pipe.reset();
  PS.reset();
  maybeEvictSessions();
  return R;
}

bool BuildService::persistSession(const std::string &Program,
                                  const std::string &Key,
                                  AnalyzerSession &Session) {
  if (Config.SessionDir.empty())
    return false;
  std::string Body;
  if (!Session.serializeRetained(Body))
    return false; // Nothing retainable; the next load primes cold.
  std::error_code EC;
  fs::create_directories(Config.SessionDir, EC);
  if (EC)
    return false;
  std::string Text =
      json::encode(SessionHeader{SessionFormat, SessionFormatVersion, Program,
                                 Key})
          .dump();
  Text += '\n';
  Text += Body;
  if (!writeFileAtomic(sessionPathFor(Program, Key), Text))
    return false;
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.SessionsPersisted;
  }
  return true;
}

void BuildService::maybeEvictSessions() {
  if (!Config.MaxSessions && !Config.SessionIdleSeconds)
    return;

  std::vector<std::pair<std::string, std::shared_ptr<ProgramState>>> All;
  {
    std::lock_guard<std::mutex> Lock(ProgramsMutex);
    All.reserve(Programs.size());
    for (const auto &[Name, PS] : Programs)
      All.emplace_back(Name, PS);
  }

  auto Now = std::chrono::steady_clock::now();
  // Evicting under MapMutex is safe against every user: pipelineFor is
  // the only way to acquire an entry's Pipe and it takes MapMutex, so
  // use_count()==1 observed under the lock means no request holds (or
  // can newly obtain) this pipeline while we drop it.
  auto evictLocked = [&](const std::string &Program, ProgramState &PS,
                         std::map<std::string,
                                  ProgramState::Entry>::iterator It) {
    AnalyzerSessionCounters C = It->second.Session->counters();
    persistSession(Program, It->first, *It->second.Session);
    PS.Entries.erase(It);
    std::lock_guard<std::mutex> SLock(StatsMutex);
    ++Counters.SessionsEvicted;
    --Counters.RetainedSessions;
    record::add<AnalyzerSessionCounters>(Counters, C);
  };

  // Pass 1: idle timeout, plus a census for the LRU bound.
  struct Candidate {
    std::uint64_t Stamp;
    size_t ProgramIdx;
    std::string Key;
  };
  std::vector<Candidate> Candidates;
  size_t Live = 0;
  for (size_t PI = 0; PI < All.size(); ++PI) {
    ProgramState &PS = *All[PI].second;
    std::lock_guard<std::mutex> Lock(PS.MapMutex);
    for (auto It = PS.Entries.begin(); It != PS.Entries.end();) {
      bool Idle = It->second.Pipe.use_count() == 1;
      if (Config.SessionIdleSeconds && Idle &&
          Now - It->second.LastUsedAt >=
              std::chrono::seconds(Config.SessionIdleSeconds)) {
        evictLocked(All[PI].first, PS, It++);
        continue;
      }
      ++Live;
      if (Idle)
        Candidates.push_back({It->second.LastUseStamp, PI, It->first});
      ++It;
    }
  }

  // Pass 2: LRU count bound over the idle candidates, oldest first.
  if (Config.MaxSessions && Live > Config.MaxSessions) {
    std::sort(Candidates.begin(), Candidates.end(),
              [](const Candidate &A, const Candidate &B) {
                return A.Stamp < B.Stamp;
              });
    size_t ToEvict = Live - Config.MaxSessions;
    for (const Candidate &C : Candidates) {
      if (!ToEvict)
        break;
      ProgramState &PS = *All[C.ProgramIdx].second;
      std::lock_guard<std::mutex> Lock(PS.MapMutex);
      auto It = PS.Entries.find(C.Key);
      // Re-validate under the lock: the entry may have been touched
      // (stamp moved) or re-acquired since the census.
      if (It == PS.Entries.end() ||
          It->second.LastUseStamp != C.Stamp ||
          It->second.Pipe.use_count() != 1)
        continue;
      evictLocked(All[C.ProgramIdx].first, PS, It);
      --ToEvict;
    }
  }
}

std::future<Result<BuildResponse>> BuildService::enqueue(BuildRequest Req) {
  std::promise<Result<BuildResponse>> Done;
  std::future<Result<BuildResponse>> Fut = Done.get_future();
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Draining) {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.RejectedShutdown;
      Done.set_value(Result<BuildResponse>::failure(
          "build service is shutting down", "shutdown"));
      return Fut;
    }
    if (Queue.size() >= Config.MaxQueueDepth) {
      std::lock_guard<std::mutex> SLock(StatsMutex);
      ++Counters.RejectedBusy;
      Done.set_value(Result<BuildResponse>::failure(
          "build service queue is full (" +
              std::to_string(Config.MaxQueueDepth) + " requests); retry",
          "busy"));
      return Fut;
    }
    Queue.push_back(Job{std::move(Req), std::move(Done)});
    std::lock_guard<std::mutex> SLock(StatsMutex);
    Counters.QueueDepth = Queue.size();
    if (Queue.size() > Counters.PeakQueueDepth)
      Counters.PeakQueueDepth = Queue.size();
  }
  QueueCV.notify_one();
  return Fut;
}

void BuildService::workerLoop() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [this] { return Draining || !Queue.empty(); });
      if (Queue.empty())
        return; // Draining and drained.
      J = std::move(Queue.front());
      Queue.pop_front();
      std::lock_guard<std::mutex> SLock(StatsMutex);
      Counters.QueueDepth = Queue.size();
    }
    // run(), not handle(): a job admitted before a drain began must
    // still complete even if Draining flips while it waits.
    J.Done.set_value(run(J.Req));
  }
}

void BuildService::shutdown() {
  // Graceful drain: stop admitting (handle/enqueue answer "shutdown"
  // from here on), take over whatever is still queued, let in-flight
  // workers finish and join them, then complete the admitted backlog on
  // this thread so every accepted future resolves with a real result.
  std::deque<Job> Admitted;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Draining && WorkerThreads.empty())
      return;
    Draining = true;
    Admitted.swap(Queue);
  }
  QueueCV.notify_all();
  std::vector<std::thread> Workers;
  Workers.swap(WorkerThreads);
  for (std::thread &T : Workers)
    T.join();
  for (Job &J : Admitted)
    J.Done.set_value(run(J.Req));

  // Warm-restart persistence: with everything drained and joined the
  // sessions are quiescent; serialize each retained run so the next
  // daemon's first edit request takes the delta path instead of
  // re-priming (DESIGN.md §13).
  if (!Config.SessionDir.empty()) {
    std::vector<std::pair<std::string, std::shared_ptr<ProgramState>>> All;
    {
      std::lock_guard<std::mutex> Lock(ProgramsMutex);
      for (const auto &[Name, PS] : Programs)
        All.emplace_back(Name, PS);
    }
    for (const auto &[Name, PS] : All) {
      std::lock_guard<std::mutex> Lock(PS->MapMutex);
      for (auto &[Key, E] : PS->Entries)
        persistSession(Name, Key, *E.Session);
    }
  }
}

BuildServiceStats BuildService::stats() const {
  BuildServiceStats Out;
  {
    std::lock_guard<std::mutex> SLock(StatsMutex);
    Out = Counters;
  }
  Out.Workers = Config.Workers;
  {
    std::lock_guard<std::mutex> Lock(ProgramsMutex);
    Out.Programs = Programs.size();
    Out.Pipelines = 0;
    Out.RetainedSessions = 0;
    for (const auto &[Name, PS] : Programs) {
      std::lock_guard<std::mutex> MapLock(PS->MapMutex);
      Out.Pipelines += PS->Entries.size();
      Out.RetainedSessions += PS->Entries.size();
      for (const auto &[FP, E] : PS->Entries)
        record::add<AnalyzerSessionCounters>(Out, E.Session->counters());
    }
  }
  Out.Cache = Cache->stats();
  return Out;
}
