//===- Corpus.cpp - The corpus workload -----------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// One op is one cold Pipeline::build (fresh Pipeline, no cache
/// directory, one thread) of one bench/programs program at one of the
/// Table 4 configurations base and A-F. Cells are visited in a seeded
/// order, every cell once per pass. B and F consume the profile of a
/// baseline run collected during set-up.
///
/// Every cell is simulated once per run, outside the timed ops (the
/// simulator is deterministic, and repeats of a cell must produce the
/// same bytes); its output and exit code must equal the IR
/// interpreter's on the unoptimized program, and verifyIPRA must pass
/// (bar the known defects verifyArtifacts names).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Check.h"
#include "Traced.h"

#include "driver/Pipeline.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace ipra;
using namespace perfbench;

namespace {

/// Relative to the repository root, where perfbench runs.
const char *const ProgramsDir = "bench/programs";

struct ConfigColumn {
  const char *Name;
  PipelineConfig (*Make)();
  bool NeedsProfile;
};

const ConfigColumn Columns[] = {
    {"base", PipelineConfig::baseline, false},
    {"A", PipelineConfig::configA, false},
    {"B", PipelineConfig::configB, true},
    {"C", PipelineConfig::configC, false},
    {"D", PipelineConfig::configD, false},
    {"E", PipelineConfig::configE, false},
    {"F", PipelineConfig::configF, true},
};
constexpr int NumColumns = sizeof(Columns) / sizeof(Columns[0]);

struct CorpusProgram {
  std::string Name;
  std::vector<SourceFile> Sources;
  IRRunResult Reference;
  ProfileData Profile;
};

struct CorpusState {
  std::vector<CorpusProgram> Programs;
  std::string Error;
  double SimMs = 0;     ///< Profile-collection simulation time.
  double SimCycles = 0; ///< Cycles of those baseline runs.
};

std::vector<SourceFile> loadSources(const std::filesystem::path &Dir) {
  namespace fs = std::filesystem;
  std::vector<fs::path> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".mc")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  std::vector<SourceFile> Sources;
  for (const fs::path &F : Files) {
    std::ifstream In(F);
    std::ostringstream Text;
    Text << In.rdbuf();
    Sources.push_back(SourceFile{F.filename().string(), Text.str()});
  }
  return Sources;
}

PipelineConfig columnConfig(int Column) {
  PipelineConfig C = Columns[Column].Make();
  C.NumThreads = 1;
  return C;
}

CorpusState setUp(const Options &Opts) {
  namespace fs = std::filesystem;
  CorpusState S;
  std::vector<std::string> Names;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(ProgramsDir, EC))
    if (E.is_directory())
      Names.push_back(E.path().filename().string());
  if (EC || Names.empty()) {
    S.Error = std::string("no programs under ") + ProgramsDir;
    return S;
  }
  std::sort(Names.begin(), Names.end());
  if (Opts.Smoke)
    Names.resize(std::min<size_t>(Names.size(), 2));
  for (const std::string &Name : Names) {
    CorpusProgram P;
    P.Name = Name;
    P.Sources = loadSources(fs::path(ProgramsDir) / Name);
    P.Reference = interpretReference(P.Sources);
    if (!P.Reference.Ok) {
      S.Error = Name + ": IR interpreter failed: " + P.Reference.Error;
      return S;
    }
    // The B/F profile comes from a baseline run, as in Table 4.
    Pipeline Base(columnConfig(0));
    BuildResult B = Base.build(P.Sources);
    if (!B.ok()) {
      S.Error = Name + ": baseline build failed: " + B.text();
      return S;
    }
    auto Start = Clock::now();
    RunResult Run = runExecutable(B.Exe);
    S.SimMs += msSince(Start);
    S.SimCycles += static_cast<double>(Run.Stats.Cycles);
    P.Profile = Run.Profile;
    S.Programs.push_back(std::move(P));
  }
  return S;
}

struct Cell {
  int Program = 0;
  int Column = 0;
};

/// What the first build of a cell left behind, for the checks after the
/// timed window.
struct CellRecord {
  bool Built = false;
  std::uint64_t Hash = 0;
  BuildResult First;
};

BuildResult buildCell(const CorpusState &S, const Cell &C) {
  const CorpusProgram &P = S.Programs[static_cast<size_t>(C.Program)];
  Pipeline Pipe(columnConfig(C.Column));
  return Pipe.build(P.Sources,
                    Columns[C.Column].NeedsProfile ? &P.Profile : nullptr);
}

std::string cellName(const CorpusState &S, const Cell &C) {
  return S.Programs[static_cast<size_t>(C.Program)].Name + "/" +
         Columns[C.Column].Name;
}

} // namespace

Outcome perfbench::runCorpus(const Options &Opts) {
  Outcome Out;
  double SetupS = 0;
  CorpusState S = repeatedSetup<CorpusState>(
      Opts.SetupRepeats, SetupS, [&Opts] { return setUp(Opts); });
  if (!S.Error.empty()) {
    Out.Attempted = 1;
    Out.fail("set-up: " + S.Error);
    return Out;
  }

  std::vector<Cell> Cells;
  for (int P = 0; P < static_cast<int>(S.Programs.size()); ++P)
    for (int C = 0; C < NumColumns; ++C)
      Cells.push_back(Cell{P, C});
  std::vector<CellRecord> Records(Cells.size());
  std::mt19937 Rng(Opts.Seed);

  std::vector<double> OpMs, TracedMs, AnalyzeMs;
  LayerSamples Layers;
  Tracer T;
  auto Window = Clock::now();
  std::vector<size_t> Order;
  size_t Next = 0;
  int Op = 0;
  // --dump-cells skips the timed ops: only the per-cell checks below run.
  const double WindowMs = Opts.DumpCells ? 0 : Opts.Seconds * 1000.0;
  while (msSince(Window) < WindowMs) {
    if (Next == Order.size()) {
      Order.resize(Cells.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      std::shuffle(Order.begin(), Order.end(), Rng);
      Next = 0;
    }
    size_t CI = Order[Next++];
    const Cell &C = Cells[CI];
    ++Out.Attempted;

    auto Start = Clock::now();
    BuildResult B = buildCell(S, C);
    double Ms = msSince(Start);
    if (!B.ok()) {
      Out.fail(cellName(S, C) + ": build failed: " + B.text());
      ++Op;
      continue;
    }
    OpMs.push_back(Ms);
    if (Columns[C.Column].Name != std::string("base"))
      AnalyzeMs.push_back(B.Stats.AnalyzerMs);
    if (Opts.Tamper && Op == 1)
      B.ObjectFiles.front() += ";";

    if (Opts.Trace) {
      const CorpusProgram &P = S.Programs[static_cast<size_t>(C.Program)];
      PipelineConfig Config = columnConfig(C.Column);
      TracedBuild TB;
      auto TStart = Clock::now();
      int Root;
      {
        Span R(&T, "op", Op);
        Root = R.index();
        TB = tracedBuild(P.Sources, Config,
                         Columns[C.Column].NeedsProfile ? &P.Profile : nullptr,
                         T, Op);
      }
      TracedMs.push_back(msSince(TStart));
      if (!TB.Ok) {
        Out.fail(cellName(S, C) + ": traced build failed: " + TB.Error);
      } else if (TB.SummaryTexts != B.SummaryFiles ||
                 TB.DatabaseText != B.DatabaseFile ||
                 TB.ObjectTexts != B.ObjectFiles) {
        Out.fail(cellName(S, C) +
                 ": traced artifacts differ from Pipeline::build's");
      }
      if (Config.Ipra && Config.PointsTo == PointsToMode::GPG)
        gpgComposeProbe(TB.Summaries, Config.AssumeClosedWorld, T, Op);
      addBuildLayers(Layers, T, Op, TB);
      double LayerSum = T.spans()[static_cast<size_t>(Root)].ms() -
                        T.selfMsOf(Root);
      Layers.add("trace.layer_sum_ms", LayerSum);
      Layers.add("driver.build_ms", Ms);
      Layers.add("driver.overhead_ms", Ms - LayerSum);
    }

    std::uint64_t H =
        artifactHash(B.SummaryFiles, B.DatabaseFile, B.ObjectFiles);
    CellRecord &Rec = Records[CI];
    if (!Rec.Built) {
      Rec.Built = true;
      Rec.Hash = H;
      Rec.First = std::move(B);
    } else if (Rec.Hash != H) {
      Out.fail(cellName(S, C) + ": artifacts differ across repeats");
    }
    ++Op;
  }
  const double WindowS = msSince(Window) / 1000.0;
  const int Ops = static_cast<int>(OpMs.size());
  const double PeakRss = peakRssMb();

  // Once per cell, outside the timed window and on Opts.Threads threads:
  // verifyIPRA, simulation against the IR interpreter, and the paper's
  // quality counts.
  std::vector<std::string> Violation(Cells.size()), Err(Cells.size());
  std::vector<int> Known(Cells.size(), 0);
  std::vector<RunStats> Stats(Cells.size());
  parallelForEach(Cells.size(), Opts.Threads, [&](size_t I) {
    const Cell &C = Cells[I];
    CellRecord &Rec = Records[I];
    if (!Rec.Built) {
      Rec.First = buildCell(S, C);
      if (!Rec.First.ok()) {
        Err[I] = "build failed: " + Rec.First.text();
        return;
      }
    }
    Violation[I] = verifyArtifacts(cellName(S, C), Rec.First.ObjectFiles,
                                   Rec.First.DatabaseFile, Known[I]);
    Err[I] = simulateAndCompare(
        Rec.First.Exe, S.Programs[static_cast<size_t>(C.Program)].Reference,
        Stats[I]);
  });
  if (Opts.DumpCells) {
    // The Table 4/5 cross-check reads these lines.
    for (size_t I = 0; I < Cells.size(); ++I) {
      const Cell &C = Cells[I];
      std::printf("{\"program\": \"%s\", \"config\": \"%s\", \"ok\": %s, "
                  "\"cycles\": %lld, \"singleton_refs\": %lld, "
                  "\"mem_refs\": %lld}\n",
                  S.Programs[static_cast<size_t>(C.Program)].Name.c_str(),
                  Columns[C.Column].Name, Err[I].empty() ? "true" : "false",
                  Stats[I].Cycles, Stats[I].SingletonRefs, Stats[I].MemRefs);
    }
    return Out;
  }
  QualityTotals Quality;
  for (size_t I = 0; I < Cells.size(); ++I) {
    if (!Records[I].Built)
      ++Out.Attempted;
    Out.KnownIpraViolations += Known[I];
    if (!Violation[I].empty())
      Out.fail(cellName(S, Cells[I]) + ": " + Violation[I]);
    else if (!Err[I].empty())
      Out.fail(cellName(S, Cells[I]) + ": " + Err[I]);
    else
      Quality.add(Stats[I], Records[I].First.Exe);
  }

  Out.Info.push_back("corpus: " + std::to_string(S.Programs.size()) +
                     " programs x " + std::to_string(NumColumns) +
                     " configs = " + std::to_string(Cells.size()) +
                     " cells; " + std::to_string(Ops) + " op samples; " +
                     std::to_string(AnalyzeMs.size()) +
                     " cold-analysis samples; " +
                     std::to_string(Opts.SetupRepeats) + " set-ups");
  if (Opts.Trace) {
    Layers.add("sim.run_ms", S.SimMs);
    Layers.add("sim.cycles", S.SimCycles);
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
  Out.set("setup_s", SetupS, "s");
  Out.set("op_ms_p50", median(OpMs), "ms");
  Out.set("op_ms_p90", percentile(OpMs, 90), "ms");
  Out.set("ops_per_s", WindowS > 0 ? Ops / WindowS : 0, "1/s");
  Out.set("cold_analyze_ms", median(AnalyzeMs), "ms");
  Quality.report(Out);
  Out.set("peak_rss_mb", PeakRss, "MiB");
  return Out;
}

void perfbench::corpusQualityProbe(const Options &Opts,
                                   const PipelineConfig &Config,
                                   const std::string &ConfigName, Outcome &Out,
                                   QualityTotals &Q) {
  CorpusState S = setUp(Opts);
  if (!S.Error.empty()) {
    ++Out.Attempted;
    Out.fail("quality probe: " + S.Error);
    return;
  }
  for (const CorpusProgram &P : S.Programs) {
    Pipeline Pipe(Config);
    BuildResult B = Pipe.build(P.Sources, &P.Profile);
    if (!B.ok()) {
      ++Out.Attempted;
      Out.fail("quality probe " + P.Name + ": build failed: " + B.text());
      continue;
    }
    int Known = 0;
    RunStats Stats;
    std::string Err = verifyArtifacts(P.Name + "/" + ConfigName,
                                      B.ObjectFiles, B.DatabaseFile, Known);
    Out.KnownIpraViolations += Known;
    if (Err.empty())
      Err = simulateAndCompare(B.Exe, P.Reference, Stats);
    if (!Err.empty()) {
      ++Out.Attempted;
      Out.fail("quality probe " + P.Name + ": " + Err);
      continue;
    }
    Q.add(Stats, B.Exe);
  }
}
