//===- main.cpp - perfbench driver ----------------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// perfbench --workload corpus|analyze-edit|service-edit
///           --seed N --seconds S --trace 0|1
///           [--smoke] [--tamper] [--dump-cells] [--trace-out FILE]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
/// report the end-to-end metrics, traced runs the per-layer ones. Exits
/// 1 when any op failed, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload corpus|analyze-edit|"
               "service-edit --seed N --seconds S --trace 0|1\n"
               "                 [--smoke] [--tamper] [--dump-cells] "
               "[--trace-out FILE]\n",
               Why);
  return 2;
}

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--smoke") {
      Opts.Smoke = true;
    } else if (A == "--tamper") {
      Opts.Tamper = true;
    } else if (A == "--dump-cells") {
      Opts.DumpCells = true;
    } else if (!(V = Value())) {
      return usage(("missing value for " + A).c_str());
    } else if (A == "--workload") {
      Opts.Workload = V;
    } else if (A == "--seed") {
      Opts.Seed = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      HaveSeed = true;
    } else if (A == "--seconds") {
      Opts.Seconds = std::atof(V);
      HaveSeconds = Opts.Seconds > 0;
    } else if (A == "--trace") {
      Opts.Trace = std::strcmp(V, "1") == 0;
      HaveTrace = Opts.Trace || std::strcmp(V, "0") == 0;
    } else if (A == "--trace-out") {
      Opts.TraceOut = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace are required");
  Opts.Threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  if (!Opts.Smoke && !Opts.DumpCells)
    Opts.SetupRepeats = Opts.Workload == "corpus" ? 3 : 5;

  Outcome Out;
  if (Opts.Workload == "corpus")
    Out = runCorpus(Opts);
  else if (Opts.Workload == "analyze-edit")
    Out = runAnalyzeEdit(Opts);
  else if (Opts.Workload == "service-edit")
    Out = runServiceEdit(Opts);
  else
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
  if (Opts.DumpCells)
    return Out.Failed ? 1 : 0;

  // Every catalogued metric of the run's kind is printed; a workload
  // that cannot produce one is a bug in the benchmark.
  const auto &Catalogue = Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  if (Out.Failed == 0)
    for (const auto &[Name, Unit] : Catalogue)
      if (!Out.has(Name)) {
        Out.Attempted = std::max<long long>(Out.Attempted, 1);
        Out.fail("benchmark produced no value for " + Name);
      }

  for (const std::string &Line : Out.Info)
    std::printf("# %s\n", Line.c_str());
  std::printf("# verifyIPRA: %lld known-defect violations tolerated "
              "(rotab/E read-only-store of Rate, Bias); any other fails "
              "its op\n",
              Out.KnownIpraViolations);
  std::printf("# workload=%s seed=%u seconds=%g trace=%d threads=%u\n",
              Opts.Workload.c_str(), Opts.Seed, Opts.Seconds,
              Opts.Trace ? 1 : 0, Opts.Threads);
  for (const std::string &F : Out.Failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", F.c_str());

  bool Correct = Out.Failed == 0 && Out.Attempted > 0;
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(std::max(Out.Attempted, 1LL));
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Unit] : Catalogue) {
    for (const Metric &M : Out.Metrics)
      if (M.Name == Name) {
        Json += First ? "" : ", ";
        First = false;
        Json += "\"" + M.Name + "\": {\"value\": " + jsonNumber(M.Value) +
                ", \"unit\": \"" + M.Unit + "\"}";
      }
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return Correct ? 0 : 1;
}
