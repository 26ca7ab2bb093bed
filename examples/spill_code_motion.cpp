//===- spill_code_motion.cpp - Watching save/restore code move ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Spill code motion (§4.2) in action: a call-intensive program whose
/// hot leaf procedures need callee-saves registers. At the baseline,
/// every hot procedure saves and restores its registers on every one of
/// thousands of calls; with spill code motion the analyzer forms a
/// cluster, hands the leaves FREE registers, and hoists the save/restore
/// into the cluster root, which runs once per outer iteration. The
/// example prints the register-set directives and disassembles the hot
/// leaf under both configurations so the deleted spill code is visible.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "driver/Pipeline.h"

#include <cstdio>

using namespace ipra;

namespace {

const char *TheProgram =
    "int acc;\n"
    "int tick(int x) { acc = (acc + x) % 1000003; return acc; }\n"
    // The hot members: values live ACROSS the calls to tick() need
    // callee-saves registers, so without spill code motion each
    // invocation saves and restores them.
    "int memberA(int x) {\n"
    "  int a = x; int b = x + 1; int c = x + 2; int d = x * 3;\n"
    "  for (int i = 0; i < 4; i = i + 1) {\n"
    "    a = a + tick(b); b = b + c; c = c + tick(d); d = d + a;\n"
    "  }\n"
    "  return a + b + c + d;\n"
    "}\n"
    "int memberB(int x) {\n"
    "  int p = x; int q = 2 * x; int r = x - 1;\n"
    "  for (int i = 0; i < 3; i = i + 1) {\n"
    "    p = p + tick(q); q = q + r; r = r + tick(p);\n"
    "  }\n"
    "  return p + q + r;\n"
    "}\n"
    // The cluster root: called rarely, calls the members often.
    "int region(int n) {\n"
    "  int total = 0;\n"
    "  for (int i = 0; i < n; i = i + 1)\n"
    "    total = total + memberA(i) + memberB(i);\n"
    "  return total;\n"
    "}\n"
    "int main() {\n"
    "  for (int round = 0; round < 10; round = round + 1)\n"
    "    acc = (acc + region(100)) % 1000000;\n"
    "  print(acc);\n"
    "  return 0;\n"
    "}\n";

void disassemble(const Executable &Exe, const char *Name) {
  for (const ExeSymbol &Sym : Exe.Symbols) {
    if (Sym.QualName != Name)
      continue;
    for (int I = Sym.Start; I < Sym.End; ++I)
      std::printf("    %4d: %s\n", I, Exe.Code[I].toString().c_str());
  }
}

int countSaveRestore(const Executable &Exe, const char *Name) {
  int N = 0;
  for (const ExeSymbol &Sym : Exe.Symbols)
    if (Sym.QualName == Name)
      for (int I = Sym.Start; I < Sym.End; ++I)
        if (Exe.Code[I].isMemAccess() &&
            Exe.Code[I].MC == MemClass::StackScalar)
          ++N;
  return N;
}

} // namespace

int main() {
  std::vector<SourceFile> Sources = {{"hot.mc", TheProgram}};

  BuildResult BaseBuild = Pipeline(PipelineConfig::baseline()).build(Sources);
  RunResult Base = runExecutable(BaseBuild.Exe);
  BuildResult MovedBuild = Pipeline(PipelineConfig::configA()).build(Sources);
  RunResult Moved = runExecutable(MovedBuild.Exe);
  if (!BaseBuild.ok() || !MovedBuild.ok()) {
    std::fprintf(stderr, "compile failed\n");
    return 1;
  }

  // The analyzer's directives for the cluster.
  ProgramDatabase DB;
  std::string Error;
  ProgramDatabase::deserialize(MovedBuild.DatabaseFile, DB, Error);
  std::printf("register-set directives with spill code motion:\n");
  for (const char *Proc : {"region", "memberA", "memberB"}) {
    ProcDirectives Dir = DB.lookup(Proc);
    std::printf("  %-8s %s free=%-12s mspill=%-12s\n", Proc,
                Dir.IsClusterRoot ? "[root]" : "      ",
                pr32::maskToString(Dir.Free).c_str(),
                pr32::maskToString(Dir.MSpill).c_str());
  }

  std::printf("\nstack save/restore instructions inside each "
              "procedure (static count):\n");
  std::printf("  %-8s %10s %14s\n", "proc", "baseline", "spill motion");
  for (const char *Proc : {"region", "memberA", "memberB"}) {
    std::printf("  %-8s %10d %14d\n", Proc,
                countSaveRestore(BaseBuild.Exe, Proc),
                countSaveRestore(MovedBuild.Exe, Proc));
  }

  std::printf("\nhot leaf 'memberB' with spill motion (no stw/ldw "
              "save/restore left):\n");
  disassemble(MovedBuild.Exe, "memberB");

  std::printf("\nbehaviour check: outputs %s; cycles %lld -> %lld "
              "(%.1f%% better)\n",
              Base.Output == Moved.Output ? "identical"
                                                  : "DIFFER (bug!)",
              Base.Stats.Cycles, Moved.Stats.Cycles,
              100.0 * (Base.Stats.Cycles - Moved.Stats.Cycles) /
                  Base.Stats.Cycles);
  return Base.Output == Moved.Output ? 0 : 1;
}
