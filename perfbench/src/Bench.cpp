//===- Bench.cpp - Shared perfbench infrastructure ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

using namespace perfbench;

void Outcome::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 8)
    Failures.push_back(Why);
}

void Outcome::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  for (Metric &M : Metrics)
    if (M.Name == Name) {
      M.Value = Value;
      M.Unit = Unit;
      return;
    }
  Metrics.push_back(Metric{Name, Value, Unit});
}

bool Outcome::has(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return true;
  return false;
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Rank));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-300));
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  struct rusage RU;
  if (getrusage(RUSAGE_SELF, &RU) != 0)
    return 0;
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::uint64_t
perfbench::hashTexts(const std::vector<const std::string *> &Texts) {
  std::uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](unsigned char C) {
    H ^= C;
    H *= 1099511628211ull;
  };
  for (const std::string *T : Texts) {
    for (char C : *T)
      Mix(static_cast<unsigned char>(C));
    Mix(0xff); // Separator, so ("ab","c") != ("a","bc").
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Tracing.
//===----------------------------------------------------------------------===//

namespace {
std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
} // namespace

int Tracer::begin(const char *Name, int Op) {
  SpanRecord R;
  R.Name = Name;
  R.Op = Op;
  R.Parent = Stack.empty() ? -1 : Stack.back();
  R.StartNs = nowNs();
  Spans.push_back(R);
  int Index = static_cast<int>(Spans.size()) - 1;
  Stack.push_back(Index);
  return Index;
}

void Tracer::end(int Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  if (!Stack.empty() && Stack.back() == Index)
    Stack.pop_back();
}

void Tracer::append(const Tracer &Other) {
  int Base = static_cast<int>(Spans.size());
  for (SpanRecord R : Other.Spans) {
    if (R.Parent >= 0)
      R.Parent += Base;
    Spans.push_back(R);
  }
}

double Tracer::selfMsOf(int Index) const {
  double Self = Spans[static_cast<size_t>(Index)].ms();
  for (const SpanRecord &R : Spans)
    if (R.Parent == Index)
      Self -= R.ms();
  return Self;
}

std::map<std::string, double> Tracer::selfMs(int Op) const {
  std::map<std::string, double> Out;
  std::vector<double> Self(Spans.size(), 0);
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Op == Op)
      Self[I] = Spans[I].ms();
  for (const SpanRecord &R : Spans)
    if (R.Op == Op && R.Parent >= 0)
      Self[static_cast<size_t>(R.Parent)] -= R.ms();
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Op == Op)
      Out[Spans[I].Name] += Self[I];
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &R = Spans[I];
    OS << "{\"id\": " << I << ", \"name\": \"" << R.Name
       << "\", \"op\": " << R.Op << ", \"parent\": " << R.Parent
       << ", \"start_ns\": " << R.StartNs << ", \"end_ns\": " << R.EndNs
       << "}\n";
  }
  return static_cast<bool>(OS);
}

double LayerSamples::medianOf(const std::string &Name) const {
  auto It = Samples.find(Name);
  return It == Samples.end() ? 0 : median(It->second);
}

//===----------------------------------------------------------------------===//
// The metric catalogue.
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &
perfbench::endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"setup_s", "s"},
      {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},
      {"ops_per_s", "1/s"},
      {"cold_analyze_ms", "ms"},
      {"cycles_geomean", "cycles"},
      {"singleton_refs", "count"},
      {"mem_refs", "count"},
      {"code_words", "words"},
      {"peak_rss_mb", "MiB"},
  };
  return M;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"lang.ms", "ms"},
      {"lang.tokens", "count"},
      {"ir.irgen_ms", "ms"},
      {"ir.verify_ms", "ms"},
      {"ir.instrs", "count"},
      {"analysis.andersen_ms", "ms"},
      {"analysis.gpg_build_ms", "ms"},
      {"analysis.gpg_compose_ms", "ms"},
      {"opt.phase1_ms", "ms"},
      {"opt.phase2_ms", "ms"},
      {"opt.instrs_after", "count"},
      {"codegen.phase1_ms", "ms"},
      {"codegen.phase2_ms", "ms"},
      {"codegen.machine_instrs", "count"},
      {"codegen.spills", "count"},
      {"summary.build_ms", "ms"},
      {"summary.write_ms", "ms"},
      {"summary.read_ms", "ms"},
      {"summary.bytes", "bytes"},
      {"core.analyze_ms", "ms"},
      {"core.refsets_ms", "ms"},
      {"core.modref_ms", "ms"},
      {"core.webs_ms", "ms"},
      {"core.coloring_ms", "ms"},
      {"core.clusters_ms", "ms"},
      {"core.regsets_ms", "ms"},
      {"core.untracked_ms", "ms"},
      {"core.webs_kept_ratio", "ratio"},
      {"core.damaged_sccs", "count"},
      {"core.web_reuse", "ratio"},
      {"db.write_ms", "ms"},
      {"db.read_ms", "ms"},
      {"db.bytes", "bytes"},
      {"object.write_ms", "ms"},
      {"object.read_ms", "ms"},
      {"driver.build_ms", "ms"},
      {"driver.overhead_ms", "ms"},
      {"driver.cache_hit_ratio.phase1", "ratio"},
      {"driver.cache_hit_ratio.analyzer", "ratio"},
      {"driver.cache_hit_ratio.phase2", "ratio"},
      {"link.ms", "ms"},
      {"link.object_bytes", "bytes"},
      {"service.server_ms_p50", "ms"},
      {"service.wire_ms_p50", "ms"},
      {"service.encode_ms", "ms"},
      {"service.decode_ms", "ms"},
      {"service.delta_hits", "count"},
      {"service.coalesced", "count"},
      {"service.op_ms_body_edit_p50", "ms"},
      {"service.op_ms_ref_edit_p50", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.cycles", "cycles"},
      {"trace.op_ms_p50", "ms"},
      {"trace.untraced_op_ms_p50", "ms"},
      {"trace.overhead_ms", "ms"},
      {"trace.layer_sum_ms", "ms"},
      {"trace.spans_per_op", "count"},
      {"check.ipra_violations", "count"},
  };
  return M;
}

void perfbench::reportLayers(Outcome &Out, const LayerSamples &Layers) {
  for (const auto &[Name, Unit] : perLayerMetrics())
    Out.set(Name, Layers.medianOf(Name), Unit);
  Out.set("check.ipra_violations",
          static_cast<double>(Out.KnownIpraViolations),
          "count");
}
