//===- bench_pipeline_scale.cpp - Compile-pipeline thread scaling ---------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The repo's first scaling benchmark: both compiler phases are
/// independent per module (the paper's Figure 1), so the pipeline
/// parallelizes over modules and functions while the program analyzer
/// stays sequential. This harness sweeps 1/2/4/8 worker threads over
/// the bench/programs corpus, prints the end-to-end speedup per thread
/// count, and verifies that every thread count produced byte-identical
/// objects and program database (the determinism contract).
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace ipra;
using namespace ipra::bench;

namespace {

const int ThreadCounts[] = {1, 2, 4, 8};

/// One pipeline run over every corpus program; returns wall-clock ms
/// and accumulates artifacts for the determinism check.
double compileCorpusMs(const std::vector<std::vector<SourceFile>> &Corpus,
                       int Threads,
                       std::vector<std::string> *Artifacts) {
  PipelineConfig Config = PipelineConfig::configC();
  Config.NumThreads = Threads;
  auto Start = std::chrono::steady_clock::now();
  for (const auto &Sources : Corpus) {
    BuildResult R = Pipeline(Config).build(Sources);
    if (!R.ok()) {
      std::fprintf(stderr, "compile failed: %s\n", R.text().c_str());
      std::exit(1);
    }
    if (Artifacts) {
      Artifacts->push_back(R.DatabaseFile);
      for (const std::string &Obj : R.ObjectFiles)
        Artifacts->push_back(Obj);
    }
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

void printScalingTable() {
  std::vector<std::vector<SourceFile>> Corpus;
  int Modules = 0;
  for (const ProgramInfo &P : programList()) {
    Corpus.push_back(loadProgram(P.Name));
    Modules += static_cast<int>(Corpus.back().size());
  }
  unsigned Cores = std::thread::hardware_concurrency();
  std::printf("Pipeline thread scaling over the bench corpus "
              "(%zu programs, %d modules, config C)\n",
              Corpus.size(), Modules);
  std::printf("Hardware threads available: %u\n", Cores);
  if (Cores < 4)
    std::printf("NOTE: fewer than 4 hardware threads -- rows beyond %u "
                "threads measure scheduling overhead, not scaling.\n",
                Cores);
  std::printf("---------------------------------------------------------\n");
  std::printf("  %8s %12s %9s\n", "threads", "compile(ms)", "speedup");

  // Warm-up pass so first-touch effects don't bias the 1-thread row.
  compileCorpusMs(Corpus, 1, nullptr);

  double BaseMs = 0;
  std::vector<std::string> BaseArtifacts;
  for (int Threads : ThreadCounts) {
    std::vector<std::string> Artifacts;
    // Best of three runs: the corpus is small enough that scheduler
    // noise would otherwise dominate.
    double Ms = compileCorpusMs(Corpus, Threads, &Artifacts);
    for (int Rep = 0; Rep < 2; ++Rep)
      Ms = std::min(Ms, compileCorpusMs(Corpus, Threads, nullptr));
    if (Threads == 1) {
      BaseMs = Ms;
      BaseArtifacts = std::move(Artifacts);
    } else if (Artifacts != BaseArtifacts) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %d-thread artifacts differ "
                   "from 1-thread artifacts\n",
                   Threads);
      std::exit(1);
    }
    std::printf("  %8d %12.1f %8.2fx\n", Threads, Ms,
                BaseMs / (Ms > 0 ? Ms : 1));
  }
  std::printf("\n  (objects and program database byte-identical across "
              "all thread counts)\n\n");
}

/// google-benchmark timing of one corpus compile at each thread count.
void BM_CompileCorpus(benchmark::State &State) {
  static const std::vector<std::vector<SourceFile>> Corpus = [] {
    std::vector<std::vector<SourceFile>> C;
    for (const ProgramInfo &P : programList())
      C.push_back(loadProgram(P.Name));
    return C;
  }();
  int Threads = static_cast<int>(State.range(0));
  for (auto _ : State) {
    double Ms = compileCorpusMs(Corpus, Threads, nullptr);
    benchmark::DoNotOptimize(Ms);
  }
}
BENCHMARK(BM_CompileCorpus)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  printScalingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
