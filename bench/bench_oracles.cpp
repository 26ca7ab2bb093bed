//===- bench_oracles.cpp - Reference interpreter and simulator speed ------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The two oracles every corpus number passes through: the reference IR
/// interpreter, which checks each simulated run, and the PR32 simulator,
/// which produces Table 4's cycles, Table 5's singleton references and
/// the B/F call profile. For each corpus program this bench times the
/// interpreter on the unoptimized program (front end included) and the
/// simulator on the baseline executable, each the median of several
/// runs, and reports the interpreter's steps, the simulated instructions
/// and the simulator's nanoseconds per instruction. It aborts non-zero
/// if the simulated run's output or exit code differs from the
/// interpreter's (a wrong oracle would invalidate every number).
///
/// Results go to stdout as a table and to BENCH_oracles.json.
/// --smoke runs the small programs once (the oracle ctest entry);
/// --json=<path> overrides the output file. Any other argument prints
/// usage and exits 2 before anything is timed or written.
///
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace ipra;
using namespace ipra::bench;

namespace {

struct Row {
  std::string Program;
  double InterpMs = 0;
  long long InterpSteps = 0;
  double SimMs = 0;
  long long SimInstrs = 0;
  double nsPerInstr() const {
    return SimInstrs ? SimMs * 1e6 / static_cast<double>(SimInstrs) : 0.0;
  }
};

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// Wall-clock milliseconds of \p Run, the median of \p Repeats runs.
template <typename Fn> double timeMs(int Repeats, Fn &&Run) {
  std::vector<double> Ms;
  for (int R = 0; R < Repeats; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Run();
    Ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count());
  }
  return median(std::move(Ms));
}

Row measure(const std::string &Program, int Repeats) {
  Row Out;
  Out.Program = Program;
  auto Sources = loadProgram(Program);
  BuildResult B = Pipeline(PipelineConfig::baseline()).build(Sources);
  if (!B.ok()) {
    std::fprintf(stderr, "FATAL: %s: build failed: %s\n", Program.c_str(),
                 B.text().c_str());
    std::exit(1);
  }
  IRRunResult Ref;
  RunResult Sim;
  Out.InterpMs = timeMs(Repeats, [&] { Ref = interpretProgram(Sources); });
  Out.SimMs = timeMs(Repeats, [&] { Sim = runExecutable(B.Exe); });
  if (!Ref.Ok || !Sim.Halted || Sim.Output != Ref.Output ||
      Sim.ExitCode != Ref.ExitCode) {
    std::fprintf(stderr,
                 "FATAL: %s: the simulator and the IR interpreter disagree "
                 "(interp: %s; sim: %s)\n",
                 Program.c_str(), Ref.Ok ? "ok" : Ref.Error.c_str(),
                 Sim.Halted ? "halted" : Sim.Trap.c_str());
    std::exit(1);
  }
  Out.InterpSteps = Ref.Steps;
  Out.SimInstrs = Sim.Stats.Instructions;
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  std::string JsonPath = "BENCH_oracles.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else {
      std::fprintf(stderr,
                   "bench_oracles: unknown argument '%s'\n"
                   "usage: bench_oracles [--smoke] [--json=<path>]\n",
                   argv[I]);
      return 2;
    }
  }
  const int Repeats = Smoke ? 1 : 5;
  std::vector<std::string> Programs;
  if (Smoke)
    Programs = {"dhry", "disp", "ptrchase", "rotab"};
  else
    for (const ProgramInfo &P : programList())
      Programs.push_back(P.Name);

  std::printf("Oracle speed (median of %d runs)\n\n", Repeats);
  std::printf("  %-9s | %10s %12s | %10s %12s %8s\n", "program",
              "interp ms", "steps", "sim ms", "instrs", "ns/instr");
  std::vector<Row> Rows;
  double InterpTotal = 0, SimTotal = 0;
  for (const std::string &Program : Programs) {
    Row R = measure(Program, Repeats);
    std::printf("  %-9s | %10.1f %12lld | %10.1f %12lld %8.2f\n",
                R.Program.c_str(), R.InterpMs, R.InterpSteps, R.SimMs,
                R.SimInstrs, R.nsPerInstr());
    InterpTotal += R.InterpMs;
    SimTotal += R.SimMs;
    Rows.push_back(std::move(R));
  }
  std::printf("  %-9s | %10.1f %12s | %10.1f\n", "total", InterpTotal, "",
              SimTotal);

  std::ofstream OS(JsonPath);
  OS << "{\n  \"bench\": \"oracles\",\n"
     << "  \"repeats\": " << Repeats
     << ",\n  \"interp_total_ms\": " << InterpTotal
     << ",\n  \"sim_total_ms\": " << SimTotal << ",\n  \"programs\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    OS << "    {\"program\": \"" << R.Program
       << "\", \"interp_ms\": " << R.InterpMs
       << ", \"interp_steps\": " << R.InterpSteps
       << ", \"sim_ms\": " << R.SimMs << ", \"sim_instrs\": " << R.SimInstrs
       << ", \"sim_ns_per_instr\": " << R.nsPerInstr() << "}"
       << (I + 1 < Rows.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
  std::printf("  wrote %s\n", JsonPath.c_str());
  return 0;
}
