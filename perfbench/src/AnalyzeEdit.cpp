//===- AnalyzeEdit.cpp - The analyze-edit workload ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// One op is one Pipeline::analyze (DeltaAnalysis on) after a seeded
/// single-module summary edit — a reference frequency, a register need,
/// or a call frequency — to a synthetic modular program of tens of
/// thousands of procedures. Every ColdEvery ops (and once after the
/// window) a cold analysis on a fresh Pipeline runs over the current
/// summaries; it is timed as cold_analyze_ms and its database must equal
/// the last delta database byte for byte.
///
/// The ops produce no code, so this workload's quality metrics come from
/// corpusQualityProbe at the same configuration.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Check.h"
#include "Gen.h"
#include "Traced.h"

#include "core/AnalyzerSession.h"
#include "driver/Pipeline.h"

#include <memory>

using namespace ipra;
using namespace perfbench;

namespace {

constexpr int ColdEvery = 10;

PipelineConfig analyzeConfig(bool Delta) {
  PipelineConfig C = PipelineConfig::configC();
  C.NumThreads = 1;
  C.DeltaAnalysis = Delta;
  // Bounded, as a long-lived session would run: otherwise every op's
  // database stays cached and peak memory follows the op count.
  C.CacheMemBudgetBytes = 32u << 20;
  return C;
}

struct EditState {
  std::vector<ModuleSummary> Modules;
  std::vector<std::string> Texts;
  std::unique_ptr<Pipeline> Pipe;
  /// The traced run's own retained analyzer, fed the same edits.
  std::shared_ptr<AnalyzerSession> TracedSession;
  std::string Error;
};

EditState setUp(const Options &Opts) {
  EditState S;
  SummaryShape Shape;
  if (Opts.Smoke)
    Shape = SummaryShape{8, 60, 4};
  PipelineConfig Config = analyzeConfig(true);
  S.Modules = syntheticSummaries(Shape, Opts.Seed);
  for (ModuleSummary &M : S.Modules) {
    M.ConfigFingerprint = Config.compileFingerprint();
    S.Texts.push_back(writeSummary(M));
  }
  // Prime the retained state with the first (cold) analysis.
  S.Pipe = std::make_unique<Pipeline>(Config);
  DatabaseResult R = S.Pipe->analyze(S.Texts);
  if (!R.ok())
    S.Error = "priming analysis failed: " + R.text();
  if (Opts.Trace) {
    S.TracedSession = std::make_shared<AnalyzerSession>();
    S.TracedSession->analyze(S.Modules, Config.analyzerOptions(), {});
  }
  return S;
}

/// The traced op: the same analysis re-driven through readSummary, the
/// retained analyzer session and the database round trip, under spans.
/// Returns the database text.
std::string tracedAnalyze(EditState &S, const PipelineConfig &Config,
                          Tracer &T, int Op, LayerSamples &L) {
  std::vector<ModuleSummary> Parsed(S.Texts.size());
  for (size_t I = 0; I < S.Texts.size(); ++I) {
    std::string Error;
    Span Sp(&T, "summary.read", Op);
    readSummary(S.Texts[I], Parsed[I], Error);
  }
  AnalyzerSession::Outcome O;
  double AnalyzeMs;
  {
    auto Start = Clock::now();
    Span Sp(&T, "core.analyze", Op);
    O = S.TracedSession->analyze(Parsed, Config.analyzerOptions(), {});
    AnalyzeMs = msSince(Start);
  }
  O.DB.ConfigFingerprint = Config.fingerprint();
  std::string Text;
  {
    Span Sp(&T, "db.write", Op);
    Text = O.DB.serialize();
  }
  {
    Span Sp(&T, "db.read", Op);
    ProgramDatabase Back;
    std::string Error;
    ProgramDatabase::deserialize(Text, Back, Error);
  }
  addAnalyzerLayers(L, O.Stats, AnalyzeMs, false);
  L.add("core.damaged_sccs", O.Delta.DamagedSccs);
  L.add("core.web_reuse", O.Delta.reuseRatio());
  return Text;
}

} // namespace

Outcome perfbench::runAnalyzeEdit(const Options &Opts) {
  Outcome Out;
  double SetupS = 0;
  EditState S = repeatedSetup<EditState>(Opts.SetupRepeats, SetupS,
                                         [&Opts] { return setUp(Opts); });
  if (!S.Error.empty()) {
    Out.Attempted = 1;
    Out.fail("set-up: " + S.Error);
    return Out;
  }
  const PipelineConfig Config = analyzeConfig(true);
  std::mt19937 Rng(Opts.Seed ^ 0x5eedu);
  std::vector<double> OpMs, TracedMs, ColdMs;
  LayerSamples Layers;
  Tracer T;
  std::string LastDelta;
  int Fallbacks = 0, ColdChecks = 0, Op = 0;

  auto ColdCheck = [&]() {
    Pipeline Cold(analyzeConfig(false));
    auto Start = Clock::now();
    DatabaseResult R = Cold.analyze(S.Texts);
    ColdMs.push_back(msSince(Start));
    ++ColdChecks;
    if (!R.ok()) {
      Out.fail("cold analysis failed: " + R.text());
      return;
    }
    if (R.Stats.TotalWebs > 0)
      Layers.add("core.webs_kept_ratio",
                 static_cast<double>(R.Stats.ColoredWebs) / R.Stats.TotalWebs);
    if (Opts.Tamper && ColdChecks == 1)
      LastDelta += "\n";
    if (!LastDelta.empty() && R.DatabaseText != LastDelta)
      Out.fail("delta database differs from the cold database (cold check " +
               std::to_string(ColdChecks) + ")");
  };

  auto Window = Clock::now();
  int SinceCold = 0;
  while (msSince(Window) < Opts.Seconds * 1000.0) {
    if (SinceCold == ColdEvery) {
      ColdCheck();
      SinceCold = 0;
      continue;
    }
    size_t M = Rng() % S.Modules.size();
    editSummary(S.Modules[M], Op % 3, Rng);
    {
      Span Sp(Opts.Trace ? &T : nullptr, "summary.write", Op);
      S.Texts[M] = writeSummary(S.Modules[M]);
    }
    ++Out.Attempted;
    auto Start = Clock::now();
    DatabaseResult R = S.Pipe->analyze(S.Texts);
    double Ms = msSince(Start);
    if (!R.ok()) {
      Out.fail("analysis failed: " + R.text());
      ++Op;
      continue;
    }
    OpMs.push_back(Ms);
    LastDelta = R.DatabaseText;
    if (R.Mode != "delta")
      ++Fallbacks;

    if (Opts.Trace) {
      auto TStart = Clock::now();
      std::string Text;
      int Root;
      {
        Span Sp(&T, "op", Op);
        Root = Sp.index();
        Text = tracedAnalyze(S, Config, T, Op, Layers);
      }
      TracedMs.push_back(msSince(TStart));
      if (Text != R.DatabaseText)
        Out.fail("traced database differs from Pipeline::analyze's");
      std::map<std::string, double> Self = T.selfMs(Op);
      Layers.add("summary.read_ms", Self["summary.read"]);
      Layers.add("summary.write_ms", Self["summary.write"]);
      Layers.add("db.write_ms", Self["db.write"]);
      Layers.add("db.read_ms", Self["db.read"]);
      double LayerSum = T.spans()[static_cast<size_t>(Root)].ms() -
                        T.selfMsOf(Root);
      Layers.add("trace.layer_sum_ms", LayerSum);
      Layers.add("driver.build_ms", Ms);
      Layers.add("driver.overhead_ms", Ms - LayerSum);
      double Bytes = 0;
      for (const std::string &Text : S.Texts)
        Bytes += static_cast<double>(Text.size());
      Layers.add("summary.bytes", Bytes);
      Layers.add("db.bytes", static_cast<double>(R.DatabaseText.size()));
    }
    ++Op;
    ++SinceCold;
  }
  const double WindowS = msSince(Window) / 1000.0;
  ColdCheck(); // The final state is checked too.
  const double PeakRss = peakRssMb();

  const int Ops = static_cast<int>(OpMs.size());
  int Procs = 0;
  for (const ModuleSummary &M : S.Modules)
    Procs += static_cast<int>(M.Procs.size());
  Out.Info.push_back("analyze-edit: " + std::to_string(S.Modules.size()) +
                     " modules, " + std::to_string(Procs) + " procedures; " +
                     std::to_string(Ops) + " delta op samples (" +
                     std::to_string(Fallbacks) + " fell back to full); " +
                     std::to_string(ColdMs.size()) + " cold analyses; " +
                     std::to_string(Opts.SetupRepeats) + " set-ups");
  if (Opts.Trace) {
    Layers.add("trace.op_ms_p50", median(TracedMs));
    Layers.add("trace.untraced_op_ms_p50", median(OpMs));
    Layers.add("trace.overhead_ms", median(TracedMs) - median(OpMs));
    Layers.add("trace.spans_per_op",
               Ops ? static_cast<double>(T.spans().size()) / Ops : 0);
    if (!Opts.TraceOut.empty() && !T.write(Opts.TraceOut))
      Out.Info.push_back("could not write " + Opts.TraceOut);
    reportLayers(Out, Layers);
    return Out;
  }
  QualityTotals Quality;
  corpusQualityProbe(Opts, Config, "C", Out, Quality);
  Out.set("setup_s", SetupS, "s");
  Out.set("op_ms_p50", median(OpMs), "ms");
  Out.set("op_ms_p90", percentile(OpMs, 90), "ms");
  Out.set("ops_per_s", WindowS > 0 ? Ops / WindowS : 0, "1/s");
  Out.set("cold_analyze_ms", median(ColdMs), "ms");
  Quality.report(Out);
  Out.set("peak_rss_mb", PeakRss, "MiB");
  return Out;
}
