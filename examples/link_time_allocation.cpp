//===- link_time_allocation.cpp - The [Wall 86] route, step by step -------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// §7.1's alternative to the whole two-pass scheme: no summary files, no
/// program analyzer, no database - the LINKER performs interprocedural
/// register allocation by rewriting the finished modules ([Wall 86]).
///
/// This example walks the route explicitly through the public API:
///
///   1. compile three modules at the level-2 baseline with a register
///      bank reserved for the linker (Wall's compiler cooperation);
///   2. hand the parsed objects to promoteGlobalsAtLinkTime and print
///      what the rewriter found, picked, rewrote, and deleted;
///   3. link with the initial-value stub and run, comparing cycle counts
///      against the plain baseline AND against the paper's two-pass
///      configuration C on the same program.
///
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "driver/Pipeline.h"
#include "link/LinkOpt.h"
#include "link/ObjectIO.h"
#include "sim/Simulator.h"

#include <cstdio>

using namespace ipra;

namespace {

// A three-module program with hot global-scalar traffic: a histogram
// module, a PRNG module, and a driver. 'bins' is an array (never
// promotable) while the scalar state and counters are what both the
// analyzer and the linker compete over.
const char *RandomModule =
    "int seed = 12345;\n"
    "int draws;\n"
    "int nextRand() {\n"
    "  seed = (seed * 1103515245 + 12345) & 2147483647;\n"
    "  draws = draws + 1;\n"
    "  return seed;\n"
    "}\n";

const char *HistModule =
    "int bins[16];\n"
    "int total;\n"
    "int maxBin;\n"
    "void record(int v) {\n"
    "  int i = v % 16; if (i < 0) i = i + 16;\n"
    "  bins[i] = bins[i] + 1;\n"
    "  total = total + 1;\n"
    "  if (bins[i] > maxBin) maxBin = bins[i];\n"
    "}\n";

const char *MainModule =
    "int nextRand();\n"
    "void record(int v);\n"
    "int total; int maxBin; int draws;\n"
    "int main() {\n"
    "  for (int i = 0; i < 2000; i = i + 1) record(nextRand());\n"
    "  print(total);\n"
    "  print(maxBin);\n"
    "  print(draws);\n"
    "  return 0;\n"
    "}\n";

} // namespace

int main() {
  std::vector<SourceFile> Sources = {{"rand.mc", RandomModule},
                                     {"hist.mc", HistModule},
                                     {"main.mc", MainModule}};

  // --- Reference points: level-2 baseline and the two-pass analyzer. ---
  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  if (!Base.Halted) {
    std::fprintf(stderr, "baseline failed\n");
    return 1;
  }
  RunResult TwoPass =
      runExecutable(Pipeline(PipelineConfig::configC()).build(Sources).Exe);

  // --- Step 1: baseline modules with a bank reserved for the linker. ---
  LinkAllocOptions Options; // ReserveBank defaults to C's web registers.
  PipelineConfig Cooperating = PipelineConfig::baseline();
  Cooperating.LinkerReservedRegs = Options.ReserveBank;
  std::vector<SourceFile> WithRuntime = Sources;
  WithRuntime.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  Result<BuildResponse> P2 = Pipeline(Cooperating).execute(
      BuildRequest::object(Cooperating, WithRuntime, ""));
  if (!P2.ok()) {
    std::fprintf(stderr, "%s\n", P2.text().c_str());
    return 1;
  }

  std::vector<ObjectFile> Objects;
  for (size_t I = 0; I < WithRuntime.size(); ++I) {
    ObjectFile Obj;
    std::string Error;
    if (!readObjectFile(P2->Objects[I], Obj, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 1;
    }
    std::printf("compiled %-14s %3zu functions, %zu globals\n",
                WithRuntime[I].Name.c_str(), Obj.Functions.size(),
                Obj.Globals.size());
    Objects.push_back(std::move(Obj));
  }

  // --- Step 2: the linker rewrites the finished modules. ---------------
  LinkAllocStats Stats = promoteGlobalsAtLinkTime(Objects, Options);
  std::printf("\nlink-time allocation:\n");
  std::printf("  promotable scalars found:  %d\n", Stats.CandidateGlobals);
  std::printf("  globally-unused registers: %d\n", Stats.FreeRegisters);
  for (const auto &[G, Reg] : Stats.Promoted)
    std::printf("  promoted %-10s -> r%u\n", G.c_str(), Reg);
  std::printf("  rewrote %d loads, %d stores; peephole deleted %d "
              "dead address instructions\n",
              Stats.RewrittenLoads, Stats.RewrittenStores,
              Stats.RemovedInstrs);

  // --- Step 3: link with the initial-value stub and run. ---------------
  LinkResult Linked = linkObjects(Objects, Stats.Promoted);
  if (!Linked.Success) {
    for (const std::string &E : Linked.Errors)
      std::fprintf(stderr, "link: %s\n", E.c_str());
    return 1;
  }
  RunResult R = runExecutable(Linked.Exe, 500'000'000);
  if (!R.Halted || R.Output != Base.Output) {
    std::fprintf(stderr, "behaviour mismatch after rewriting!\n");
    return 1;
  }

  std::printf("\noutput identical to the baseline (%s",
              Base.Output.substr(0, Base.Output.find('\n')).c_str());
  std::printf("...), cycle counts:\n");
  std::printf("  level-2 baseline:    %lld\n", Base.Stats.Cycles);
  std::printf("  [Wall 86] link-time: %lld  (%.1f%% better)\n",
              R.Stats.Cycles,
              100.0 * (Base.Stats.Cycles - R.Stats.Cycles) /
                  Base.Stats.Cycles);
  std::printf("  two-pass config C:   %lld  (%.1f%% better)\n",
              TwoPass.Stats.Cycles,
              100.0 * (Base.Stats.Cycles - TwoPass.Stats.Cycles) /
                  Base.Stats.Cycles);
  std::printf("\nThe two-pass analyzer wins because it sees what the\n"
              "linker cannot: loop frequencies, reference regions (webs),\n"
              "and the cluster structure that moves spill code.\n");
  return 0;
}
