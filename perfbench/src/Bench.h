//===- Bench.h - Shared perfbench infrastructure ----------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the command-line options, the
/// result record (attempted/failed ops plus named metrics), sample
/// statistics, and the in-memory span tracer of the traced run.
///
/// The tracer records spans from outside the program, around calls into
/// each module's public functions: name, start, end, parent span, and
/// the op the span belongs to. Spans stay in memory until the workload
/// ends; self time of a span is its duration minus the part its child
/// spans cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point A) {
  return std::chrono::duration<double, std::milli>(Clock::now() - A).count();
}

struct Options {
  std::string Workload;
  unsigned Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Small inputs and a short window, for the self-test.
  bool Smoke = false;
  /// Corrupt one artifact so the workload's correctness gate must fire.
  bool Tamper = false;
  /// corpus only: print every (program, config) cell's simulator counts
  /// as JSON lines and exit (the Table 4/5 cross-check).
  bool DumpCells = false;
  /// Set-up repetitions; setup_s is their median. 1 for --smoke and
  /// --dump-cells, else 3 for corpus (seconds of set-up) and 5 for the
  /// others (tenths of a second, so more repetitions steady the median).
  int SetupRepeats = 1;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string TraceOut;
  /// Threads for the checks after the timed window: nproc, capped at 4.
  unsigned Threads = 4;
};

/// One named metric as printed in the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one workload run reports.
struct Outcome {
  long long Attempted = 0;
  long long Failed = 0;
  /// The first few failure descriptions (printed to stderr).
  std::vector<std::string> Failures;
  std::vector<Metric> Metrics;
  /// Informational lines printed before the result (seed, sample counts).
  std::vector<std::string> Info;
  /// Known-defect verifyIPRA violations tolerated in checked artifacts
  /// (see verifyArtifacts); every other violation is an op failure.
  long long KnownIpraViolations = 0;

  void fail(const std::string &Why);
  void set(const std::string &Name, double Value, const std::string &Unit);
  bool has(const std::string &Name) const;
};

/// Sample statistics. Percentiles use linear interpolation between
/// closest ranks; every function returns 0 on an empty sample.
double median(std::vector<double> V);
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Peak resident set size of this process so far, in MiB. Workloads read
/// it when the timed window ends, so post-window checks do not count.
double peakRssMb();

/// Runs \p Setup \p Repeats times, keeping the last result; returns the
/// median wall time in seconds through \p SetupSeconds.
template <typename T, typename Fn>
T repeatedSetup(int Repeats, double &SetupSeconds, Fn Setup) {
  std::vector<double> Times;
  T State;
  for (int I = 0; I < Repeats; ++I) {
    State = T(); // Release the previous repetition's state first.
    auto Start = Clock::now();
    State = Setup();
    Times.push_back(msSince(Start) / 1000.0);
  }
  SetupSeconds = median(Times);
  return State;
}

/// Stable 64-bit FNV-1a hash of a sequence of strings (artifact identity).
std::uint64_t hashTexts(const std::vector<const std::string *> &Texts);

//===----------------------------------------------------------------------===//
// Tracing.
//===----------------------------------------------------------------------===//

struct SpanRecord {
  const char *Name = "";
  std::int64_t StartNs = 0;
  std::int64_t EndNs = 0;
  int Parent = -1; ///< Index of the enclosing span, -1 for a root.
  int Op = -1;     ///< The op this span belongs to.
  double ms() const { return static_cast<double>(EndNs - StartNs) / 1e6; }
};

/// One thread's span recorder. Not thread-safe: give each thread its own
/// and merge them at the end.
class Tracer {
public:
  int begin(const char *Name, int Op);
  void end(int Index);

  const std::vector<SpanRecord> &spans() const { return Spans; }
  void append(const Tracer &Other);

  /// Self time per span name, summed over the spans of \p Op.
  std::map<std::string, double> selfMs(int Op) const;
  /// Self time of the span at \p Index.
  double selfMsOf(int Index) const;

  /// Writes every span as one JSON line. Returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::vector<SpanRecord> Spans;
  std::vector<int> Stack;
};

/// RAII span; a null tracer records nothing.
class Span {
public:
  Span(Tracer *T, const char *Name, int Op)
      : T(T), Index(T ? T->begin(Name, Op) : -1) {}
  ~Span() {
    if (T)
      T->end(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  int index() const { return Index; }

private:
  Tracer *T;
  int Index;
};

/// Per-op layer values of a traced run; each metric reports the median
/// over ops.
class LayerSamples {
public:
  void add(const std::string &Name, double Value) {
    Samples[Name].push_back(Value);
  }
  double medianOf(const std::string &Name) const;
  const std::map<std::string, std::vector<double>> &all() const {
    return Samples;
  }

private:
  std::map<std::string, std::vector<double>> Samples;
};

//===----------------------------------------------------------------------===//
// The metric catalogue (BENCHMARK.json names these).
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Fills every per-layer metric from \p Layers (median over ops) and
/// sets 0 for layers the workload never reaches.
void reportLayers(Outcome &Out, const LayerSamples &Layers);

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

Outcome runCorpus(const Options &Opts);
Outcome runAnalyzeEdit(const Options &Opts);
Outcome runServiceEdit(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
