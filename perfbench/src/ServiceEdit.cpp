//===- ServiceEdit.cpp - The service-edit workload ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// A round trip is one request to an in-process build daemon over
/// AF_UNIX: edit one module of one program, then request a full build of
/// the whole program. A closed loop: two client connections, each
/// sending its next request only when the previous reply arrived, to a
/// service with two workers — never more than four busy threads. Each
/// client alternates seeded body-only edits (a constant changes; the
/// summary normally stays put and the analyzer cache hits) and
/// global-reference edits (the delta analyzer runs, then phase 2 of the
/// modules whose database slice moved); one op is one such pair, an
/// edit cycle, because the two kinds cost about 13 and 23 ms and a
/// median over single round trips would sit in the gap between them.
/// Clients pick programs at random, so two requests for one program can
/// meet and coalesce.
///
/// Every reply must be Ok (a busy or rejected reply fails the op), and
/// after the window every op's artifacts must equal, byte for byte, an
/// in-process cold build of the same sources.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Check.h"
#include "Gen.h"
#include "Traced.h"

#include "driver/Pipeline.h"
#include "link/Linker.h"
#include "link/ObjectIO.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "service/Protocol.h"
#include "service/Transport.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>

#include <unistd.h>

using namespace ipra;
using namespace perfbench;

namespace {

constexpr int NumClients = 2;
constexpr unsigned NumWorkers = 2;

PipelineConfig serviceConfig() {
  PipelineConfig C = PipelineConfig::configC();
  C.NumThreads = 1;
  C.DeltaAnalysis = true;
  return C;
}

struct SvcProgram {
  std::string Name;
  ProgramModel Model;
  std::vector<SourceFile> Initial; ///< The sources the warm build saw.
  std::vector<SourceFile> Sources; ///< Current sources; guarded by M.
  long long Seq = 0;               ///< Edits so far; guarded by M.
  std::mutex M;
};

struct ServiceState {
  std::unique_ptr<Daemon> D;
  std::string Socket;
  std::vector<std::unique_ptr<SvcProgram>> Programs;
  QualityTotals Quality;
  std::string Error;
};

/// Links a reply's textual objects, as a wire client does.
bool linkReply(const BuildResponse &R, Executable &Exe, std::string &Error) {
  std::vector<ObjectFile> Objects;
  for (const std::string &Text : R.Objects) {
    ObjectFile Obj;
    if (!readObjectFile(Text, Obj, Error))
      return false;
    Objects.push_back(std::move(Obj));
  }
  LinkResult L = linkObjects(Objects);
  if (!L.Success) {
    Error = "link failed";
    return false;
  }
  Exe = std::move(L.Exe);
  return true;
}

ServiceState setUp(const Options &Opts) {
  ServiceState S;
  S.Socket = ".perfbench-" + std::to_string(::getpid()) + ".sock";
  std::filesystem::remove(S.Socket);
  BuildServiceConfig SC;
  SC.Workers = NumWorkers;
  SC.MaxConnections = 2 * NumClients;
  // Bounded, as a long-lived daemon would run: peak memory then does not
  // grow with the number of ops the window happens to fit.
  SC.CacheMemBudgetBytes = 16u << 20;
  S.D = std::make_unique<Daemon>(S.Socket, SC);
  if (!S.D->start(S.Error)) {
    S.Error = "daemon failed to start: " + S.Error;
    return S;
  }

  SourceShape Shape;
  const int NumPrograms = Opts.Smoke ? 2 : 4;
  ServiceClient Client;
  Status C = Client.connect(S.Socket);
  if (!C.ok()) {
    S.Error = "connect failed: " + C.text();
    return S;
  }
  for (int I = 0; I < NumPrograms; ++I) {
    auto P = std::make_unique<SvcProgram>();
    P->Name = "svc" + std::to_string(I);
    P->Model = generateProgram(Shape, Opts.Seed * 7919u + I);
    P->Sources = P->Initial = renderProgram(P->Model);
    IRRunResult Ref = interpretReference(P->Sources);
    // The warm build: first request for the program, primes its
    // retained session; its executable gives the quality counts.
    Result<BuildResponse> R = Client.request(
        BuildRequest::full(serviceConfig(), P->Sources, P->Name));
    Executable Exe;
    std::string Err = !Ref.Ok ? "IR interpreter failed: " + Ref.Error
                      : !R.ok() ? "warm build failed: " + R.text()
                                : "";
    RunStats Stats;
    if (Err.empty() && linkReply(*R, Exe, Err))
      Err = simulateAndCompare(Exe, Ref, Stats);
    if (!Err.empty()) {
      S.Error = P->Name + ": " + Err;
      return S;
    }
    S.Quality.add(Stats, Exe);
    S.Programs.push_back(std::move(P));
  }
  return S;
}

/// One op as the window records it: the edit (so the op's sources can
/// be replayed after the window) and a hash of the reply's artifacts.
struct OpRecord {
  size_t Program = 0;
  long long Seq = 0; ///< Position of the edit in the program's history.
  int Module = 0;
  SourceFile Text; ///< The edited module's new source.
  std::uint64_t Hash = 0;
  bool RefEdit = false;
  bool Replied = false; ///< The reply was Ok (else the op already failed).
};

/// The traced variant of one round trip: the protocol codec and the
/// frame exchange under their own spans.
Result<BuildResponse> tracedRequest(int Fd, const BuildRequest &Req,
                                    Tracer &T, int Op) {
  std::string Payload, Reply;
  {
    Span S(&T, "service.encode", Op);
    Payload = encodeBuildRequest(Req);
  }
  {
    Span S(&T, "service.roundtrip", Op);
    if (!writeFrame(Fd, Payload) || !readFrame(Fd, Reply))
      return Result<BuildResponse>::failure("frame exchange failed",
                                            "transport");
  }
  Span S(&T, "service.decode", Op);
  return decodeBuildReply(Reply);
}

struct ClientResult {
  std::vector<OpRecord> Records;
  std::vector<double> OpMs, TracedMs, ServerMs, WireMs, BodyMs, RefMs;
  std::vector<std::string> Failures;
  long long Attempted = 0;
  LayerSamples Layers;
  Tracer T;
  double Phase1Hits = 0, Phase1All = 0, AnalyzerHits = 0, AnalyzerAll = 0,
         Phase2Hits = 0, Phase2All = 0;
};

void clientLoop(ServiceState &S, const Options &Opts, int Id,
                Clock::time_point End, ClientResult &Out) {
  std::mt19937 Rng(Opts.Seed * 31u + static_cast<unsigned>(Id));
  ServiceClient Client;
  Status C = Client.connect(S.Socket);
  int RawFd = -1;
  if (C.ok() && Opts.Trace) {
    Endpoint E;
    std::string Err;
    if (parseEndpoint(S.Socket, E, Err))
      RawFd = connectTo(E, Err);
  }
  if (!C.ok() || (Opts.Trace && RawFd < 0)) {
    ++Out.Attempted;
    Out.Failures.push_back("client " + std::to_string(Id) +
                           ": connect failed");
    return;
  }
  const PipelineConfig Config = serviceConfig();
  // One op is one edit cycle: a body-only edit round trip, then a
  // global-reference edit round trip. Timing the pair keeps the op's
  // latency unimodal; each round trip is still checked and reported.
  for (int Cycle = 0; Clock::now() < End; ++Cycle) {
    // Traced runs alternate untraced and traced cycles.
    const bool Traced = Opts.Trace && Cycle % 2 == 1;
    const int SpanOp = Id * 1000000 + Cycle;
    std::optional<Span> Root;
    if (Traced)
      Root.emplace(&Out.T, "op", SpanOp);
    double CycleMs = 0;
    bool CycleOk = true;
    for (bool RefEdit : {false, true}) {
      OpRecord Rec;
      Rec.Program = Rng() % S.Programs.size();
      Rec.RefEdit = RefEdit;
      SvcProgram &P = *S.Programs[Rec.Program];
      BuildRequest Req;
      {
        std::lock_guard<std::mutex> Lock(P.M);
        Rec.Module = RefEdit ? refEdit(P.Model, Rng) : bodyEdit(P.Model, Rng);
        Rec.Text = renderModule(P.Model, Rec.Module);
        Rec.Seq = ++P.Seq;
        P.Sources[static_cast<size_t>(Rec.Module)] = Rec.Text;
        Req = BuildRequest::full(Config, P.Sources, P.Name);
      }
      ++Out.Attempted;
      auto Start = Clock::now();
      Result<BuildResponse> R = Traced
                                    ? tracedRequest(RawFd, Req, Out.T, SpanOp)
                                    : Client.request(Req);
      double Ms = msSince(Start);
      CycleMs += Ms;
      // The edit is recorded either way: later ops' sources replay it.
      Rec.Replied = R.ok();
      if (!R.ok()) {
        CycleOk = false;
        Out.Failures.push_back(
            "client " + std::to_string(Id) + " cycle " +
            std::to_string(Cycle) + ": reply not Ok (" +
            (R.Code.empty() ? std::string("error") : R.Code) + "): " +
            R.text());
        Out.Records.push_back(std::move(Rec));
        continue;
      }
      const BuildResponse &Resp = *R;
      if (Opts.Tamper && Id == 0 && Cycle == 1 && RefEdit)
        R->Objects.front() += ";";
      Rec.Hash = artifactHash(Resp.Summaries, Resp.Database, Resp.Objects);
      Out.Records.push_back(std::move(Rec));
      if (Traced)
        continue;
      Out.ServerMs.push_back(Resp.Stats.TotalMs);
      Out.WireMs.push_back(Ms - Resp.Stats.TotalMs);
      (RefEdit ? Out.RefMs : Out.BodyMs).push_back(Ms);
      const PipelineStats &PS = Resp.Stats;
      Out.Phase1Hits += PS.Phase1CacheHits;
      Out.Phase1All += PS.Phase1CacheHits + PS.Phase1CacheMisses;
      Out.AnalyzerHits += PS.AnalyzerCacheHits;
      Out.AnalyzerAll += PS.AnalyzerCacheHits + PS.AnalyzerCacheMisses;
      Out.Phase2Hits += PS.Phase2CacheHits;
      Out.Phase2All += PS.Phase2CacheHits + PS.Phase2CacheMisses;
      Out.Layers.add("driver.build_ms", PS.TotalMs);
      Out.Layers.add("link.ms", PS.LinkMs);
      Out.Layers.add("link.object_bytes", static_cast<double>(PS.ObjectBytes));
      Out.Layers.add("summary.bytes", static_cast<double>(PS.SummaryBytes));
      Out.Layers.add("db.bytes", static_cast<double>(PS.DatabaseBytes));
      if (PS.AnalyzerMode == "delta") {
        addAnalyzerLayers(Out.Layers, Resp.Analyzer, PS.AnalyzerMs, false);
        Out.Layers.add("core.damaged_sccs", Resp.Delta.DamagedSccs);
        Out.Layers.add("core.web_reuse", Resp.Delta.reuseRatio());
      }
    }
    Root.reset();
    if (!CycleOk)
      continue;
    (Traced ? Out.TracedMs : Out.OpMs).push_back(CycleMs);
    if (Traced) {
      std::map<std::string, double> Self = Out.T.selfMs(SpanOp);
      Out.Layers.add("service.encode_ms", Self["service.encode"]);
      Out.Layers.add("service.decode_ms", Self["service.decode"]);
    }
  }
  if (RawFd >= 0)
    ::close(RawFd);
}

} // namespace

Outcome perfbench::runServiceEdit(const Options &Opts) {
  Outcome Out;
  double SetupS = 0;
  ServiceState S = repeatedSetup<ServiceState>(
      Opts.SetupRepeats, SetupS, [&Opts] { return setUp(Opts); });
  if (!S.Error.empty()) {
    Out.Attempted = 1;
    Out.fail("set-up: " + S.Error);
    return Out;
  }

  BuildServiceStats Before = S.D->service().stats();
  std::vector<ClientResult> Results(NumClients);
  auto Start = Clock::now();
  auto End = Start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Opts.Seconds));
  {
    std::vector<std::thread> Clients;
    for (int I = 0; I < NumClients; ++I)
      Clients.emplace_back(clientLoop, std::ref(S), std::cref(Opts), I, End,
                           std::ref(Results[static_cast<size_t>(I)]));
    for (std::thread &T : Clients)
      T.join();
  }
  const double WindowS = msSince(Start) / 1000.0;
  const double PeakRss = peakRssMb();
  BuildServiceStats After = S.D->service().stats();

  // Merge the clients' samples.
  ClientResult All;
  for (ClientResult &R : Results) {
    Out.Attempted += R.Attempted;
    for (const std::string &F : R.Failures)
      Out.fail(F);
    for (OpRecord &Rec : R.Records)
      All.Records.push_back(std::move(Rec));
    auto Append = [](std::vector<double> &To, const std::vector<double> &F) {
      To.insert(To.end(), F.begin(), F.end());
    };
    Append(All.OpMs, R.OpMs);
    Append(All.TracedMs, R.TracedMs);
    Append(All.ServerMs, R.ServerMs);
    Append(All.WireMs, R.WireMs);
    Append(All.BodyMs, R.BodyMs);
    Append(All.RefMs, R.RefMs);
    for (const auto &[Name, V] : R.Layers.all())
      for (double X : V)
        All.Layers.add(Name, X);
    All.T.append(R.T);
    All.Phase1Hits += R.Phase1Hits;
    All.Phase1All += R.Phase1All;
    All.AnalyzerHits += R.AnalyzerHits;
    All.AnalyzerAll += R.AnalyzerAll;
    All.Phase2Hits += R.Phase2Hits;
    All.Phase2All += R.Phase2All;
  }

  // After the window: replay every program's edit history, then check
  // each op's artifacts against an in-process cold build of the same
  // sources, on Opts.Threads threads.
  std::sort(All.Records.begin(), All.Records.end(),
            [](const OpRecord &A, const OpRecord &B) {
              return std::tie(A.Program, A.Seq) < std::tie(B.Program, B.Seq);
            });
  std::vector<std::vector<SourceFile>> OpSources(All.Records.size());
  for (size_t I = 0; I < All.Records.size(); ++I) {
    const OpRecord &Rec = All.Records[I];
    OpSources[I] = I > 0 && All.Records[I - 1].Program == Rec.Program
                       ? OpSources[I - 1]
                       : S.Programs[Rec.Program]->Initial;
    OpSources[I][static_cast<size_t>(Rec.Module)] = Rec.Text;
  }
  std::vector<double> ColdAnalyzeMs(All.Records.size(), -1);
  std::vector<std::string> Mismatch(All.Records.size());
  parallelForEach(All.Records.size(), Opts.Threads, [&](size_t I) {
    if (!All.Records[I].Replied)
      return;
    Pipeline Cold(serviceConfig());
    BuildResult B = Cold.build(OpSources[I]);
    ColdAnalyzeMs[I] = B.Stats.AnalyzerMs;
    if (!B.ok())
      Mismatch[I] = "cold build failed: " + B.text();
    else if (artifactHash(B.SummaryFiles, B.DatabaseFile, B.ObjectFiles) !=
             All.Records[I].Hash)
      Mismatch[I] = "service reply differs from the in-process cold build";
  });
  for (size_t I = 0; I < Mismatch.size(); ++I)
    if (!Mismatch[I].empty())
      Out.fail(S.Programs[All.Records[I].Program]->Name + " edit " +
               std::to_string(All.Records[I].Seq) + ": " + Mismatch[I]);

  ColdAnalyzeMs.erase(
      std::remove(ColdAnalyzeMs.begin(), ColdAnalyzeMs.end(), -1.0),
      ColdAnalyzeMs.end());
  const double Cycles =
      static_cast<double>(All.OpMs.size() + All.TracedMs.size());
  Out.Info.push_back(
      "service-edit: " + std::to_string(S.Programs.size()) + " programs x " +
      std::to_string(S.Programs.front()->Sources.size()) + " modules; " +
      std::to_string(NumClients) + " clients, " + std::to_string(NumWorkers) +
      " workers; " + std::to_string(All.OpMs.size()) +
      " edit-cycle op samples over " + std::to_string(All.BodyMs.size()) +
      " body and " + std::to_string(All.RefMs.size()) +
      " reference round trips; " + std::to_string(Opts.SetupRepeats) +
      " set-ups");
  if (Opts.Trace) {
    LayerSamples &L = All.Layers;
    L.add("service.server_ms_p50", median(All.ServerMs));
    L.add("service.wire_ms_p50", median(All.WireMs));
    L.add("service.delta_hits",
          static_cast<double>(After.DeltaHits - Before.DeltaHits));
    L.add("service.coalesced",
          static_cast<double>(After.Coalesced - Before.Coalesced));
    L.add("service.op_ms_body_edit_p50", median(All.BodyMs));
    L.add("service.op_ms_ref_edit_p50", median(All.RefMs));
    L.add("driver.cache_hit_ratio.phase1",
          All.Phase1All ? All.Phase1Hits / All.Phase1All : 0);
    L.add("driver.cache_hit_ratio.analyzer",
          All.AnalyzerAll ? All.AnalyzerHits / All.AnalyzerAll : 0);
    L.add("driver.cache_hit_ratio.phase2",
          All.Phase2All ? All.Phase2Hits / All.Phase2All : 0);
    L.add("trace.op_ms_p50", median(All.TracedMs));
    L.add("trace.untraced_op_ms_p50", median(All.OpMs));
    L.add("trace.overhead_ms", median(All.TracedMs) - median(All.OpMs));
    L.add("trace.spans_per_op",
          All.TracedMs.empty() ? 0
                               : static_cast<double>(All.T.spans().size()) /
                                     static_cast<double>(All.TracedMs.size()));
    if (!Opts.TraceOut.empty() && !All.T.write(Opts.TraceOut))
      Out.Info.push_back("could not write " + Opts.TraceOut);
    reportLayers(Out, L);
    return Out;
  }
  Out.set("setup_s", SetupS, "s");
  Out.set("op_ms_p50", median(All.OpMs), "ms");
  Out.set("op_ms_p90", percentile(All.OpMs, 90), "ms");
  Out.set("ops_per_s", WindowS > 0 ? Cycles / WindowS : 0, "1/s");
  Out.set("cold_analyze_ms", median(ColdAnalyzeMs), "ms");
  S.Quality.report(Out);
  Out.set("peak_rss_mb", PeakRss, "MiB");
  return Out;
}
