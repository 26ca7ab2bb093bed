//===- global_promotion.cpp - Walking the promotion machinery -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// A tour of global variable promotion (§4.1) on a real program: write
/// MiniC whose call graph mirrors the paper's Figure 3, run the compiler
/// first phase and the analyzer step by step through the public API
/// (summaries -> call graph -> L/P/C_REF sets -> webs -> coloring), and
/// finally compile it end to end to see the promoted registers in the
/// generated code's behaviour.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "driver/Pipeline.h"

#include <cstdio>

using namespace ipra;

namespace {

/// The Figure 3 shape as an actual program: A..H become procedures, the
/// globals g1..g3 are referenced exactly as the paper's L_REF column
/// prescribes.
const char *TheProgram =
    "int g1; int g2; int g3;\n"
    "int D() { g1 = g1 + 1; return g1; }\n"
    "int E() { g1 = g1 + g2; g2 = g2 + 1; return g1; }\n"
    "int F() { g2 = g2 + 2; return g2; }\n"
    "int G() { g2 = g2 * 2 % 1001; return g2; }\n"
    "int H() { return 7; }\n"
    "int B() { int r = 0; g1 = 1;\n"
    "  for (int i = 0; i < 50; i = i + 1) r = r + D() + E();\n"
    "  return r + g3; }\n"
    "int C() { int r = 0; g2 = 1;\n"
    "  for (int i = 0; i < 50; i = i + 1) r = r + F() + G() + H();\n"
    "  return r + g3; }\n"
    "int A() { g3 = 5; return B() + C() + g3; }\n"
    "int main() { print(A()); return 0; }\n";

std::string bitsetNames(const RefSets &RS, const DynBitset &Set) {
  std::string Out;
  for (size_t Bit : Set.bits())
    Out += (Out.empty() ? "" : " ") + RS.globalName(Bit);
  return Out.empty() ? "-" : Out;
}

} // namespace

int main() {
  std::vector<SourceFile> Sources = {{"fig3.mc", TheProgram}};

  // Drive the pipeline once to obtain the real summary file the first
  // phase would write, then hand-run the analyzer stages on it.
  BuildResult Compiled = Pipeline(PipelineConfig::configC()).build(Sources);
  if (!Compiled.ok()) {
    std::fprintf(stderr, "%s\n", Compiled.text().c_str());
    return 1;
  }

  std::vector<ModuleSummary> Summaries;
  for (const std::string &Text : Compiled.SummaryFiles) {
    ModuleSummary S;
    std::string Error;
    if (!readSummary(Text, S, Error)) {
      std::fprintf(stderr, "bad summary: %s\n", Error.c_str());
      return 1;
    }
    Summaries.push_back(std::move(S));
  }

  CallGraph CG(Summaries);
  std::printf("call graph (from the summary files):\n%s\n",
              CG.toString().c_str());

  RefSets RS(CG);
  std::printf("reference sets (Table 1 for this program):\n");
  std::printf("  %-10s %-10s %-10s %-10s\n", "proc", "L_REF", "C_REF",
              "P_REF");
  for (const char *Name :
       {"A", "B", "C", "D", "E", "F", "G", "H", "main"}) {
    int Node = CG.findNode(Name);
    if (Node < 0)
      continue;
    std::printf("  %-10s %-10s %-10s %-10s\n", Name,
                bitsetNames(RS, RS.lref(Node)).c_str(),
                bitsetNames(RS, RS.cref(Node)).c_str(),
                bitsetNames(RS, RS.pref(Node)).c_str());
  }

  auto Webs = buildWebs(CG, RS);
  colorWebsKRegisters(Webs, CG, pr32::defaultWebColoringPool());
  std::printf("\nwebs and their colors:\n");
  for (const Web &W : Webs) {
    std::printf("  web %d (%s): nodes {", W.Id,
                RS.globalName(W.GlobalId).c_str());
    bool First = true;
    for (int N : W.Nodes) {
      std::printf("%s%s", First ? "" : ", ",
                  CG.node(N).QualName.c_str());
      First = false;
    }
    std::printf("} entries {");
    First = true;
    for (int E : W.EntryNodes) {
      std::printf("%s%s", First ? "" : ", ",
                  CG.node(E).QualName.c_str());
      First = false;
    }
    std::printf("} -> %s%s\n",
                W.AssignedReg >= 0
                    ? pr32::regName(unsigned(W.AssignedReg)).c_str()
                    : "(not colored)",
                W.Considered ? "" : (" [" + W.DiscardReason + "]").c_str());
  }

  // And the proof it works: identical behaviour, fewer memory accesses.
  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  RunResult Run = runExecutable(Compiled.Exe);
  std::printf("\nbaseline: %s -> %lld singleton refs\n",
              Base.Output.substr(0, Base.Output.size() - 1).c_str(),
              Base.Stats.SingletonRefs);
  std::printf("promoted: %s -> %lld singleton refs\n",
              Run.Output.substr(0, Run.Output.size() - 1).c_str(),
              Run.Stats.SingletonRefs);
  return Run.Output == Base.Output ? 0 : 1;
}
