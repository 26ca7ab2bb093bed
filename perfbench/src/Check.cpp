//===- Check.cpp - Correctness gates shared by the workloads --------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "Check.h"

#include "Bench.h"

#include "analysis/IPRAVerify.h"
#include "driver/Driver.h"
#include "ir/IRGen.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "link/ObjectIO.h"

using namespace ipra;
using namespace perfbench;

IRRunResult
perfbench::interpretReference(const std::vector<SourceFile> &Sources) {
  std::vector<SourceFile> All = Sources;
  All.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  std::vector<std::unique_ptr<IRModule>> IRs;
  for (const SourceFile &Src : All) {
    DiagnosticEngine Diags;
    Lexer Lex(Src.Name, Src.Text, Diags);
    Parser P(Src.Name, Lex.lexAll(), Diags);
    auto AST = P.parseModule();
    Sema S(Diags);
    if (Diags.hasErrors() || !S.run(*AST)) {
      IRRunResult R;
      R.Error = "front end failed for " + Src.Name + ": " + Diags.renderAll();
      return R;
    }
    IRs.push_back(generateIR(*AST, Diags));
  }
  std::vector<const IRModule *> Ptrs;
  for (const auto &M : IRs)
    Ptrs.push_back(M.get());
  return interpretIR(Ptrs);
}

namespace {

/// verifyIPRA violations the benchmark tolerates, each pinned to one
/// corpus cell, one kind and one global: at config E, blanket promotion
/// writes rotab's read-only Rate and Bias back in main (the program
/// output is still correct). Any other violation fails the op.
struct KnownDefect {
  const char *Cell;
  IPRAViolationKind Kind;
  const char *Global;
};
const KnownDefect KnownDefects[] = {
    {"rotab/E", IPRAViolationKind::ReadOnlyStore, "Rate"},
    {"rotab/E", IPRAViolationKind::ReadOnlyStore, "Bias"},
};

bool isKnownDefect(const std::string &Cell, const IPRAViolation &V) {
  for (const KnownDefect &D : KnownDefects)
    if (Cell == D.Cell && V.Kind == D.Kind && V.Global == D.Global)
      return true;
  return false;
}

} // namespace

std::string
perfbench::verifyArtifacts(const std::string &Cell,
                           const std::vector<std::string> &ObjectTexts,
                           const std::string &DatabaseText, int &Known) {
  Known = 0;
  std::vector<ObjectFile> Objects;
  for (const std::string &Text : ObjectTexts) {
    ObjectFile Obj;
    std::string Error;
    if (!readObjectFile(Text, Obj, Error))
      return "bad object file: " + Error;
    Objects.push_back(std::move(Obj));
  }
  ProgramDatabase DB;
  std::string Error;
  if (!DatabaseText.empty() &&
      !ProgramDatabase::deserialize(DatabaseText, DB, Error))
    return "bad database: " + Error;
  for (const IPRAViolation &V : verifyIPRA(Objects, DB).Violations) {
    if (!isKnownDefect(Cell, V))
      return "verifyIPRA: " + V.render();
    ++Known;
  }
  return "";
}

std::uint64_t perfbench::artifactHash(const std::vector<std::string> &Summaries,
                                      const std::string &Database,
                                      const std::vector<std::string> &Objects) {
  std::vector<const std::string *> Texts;
  for (const std::string &S : Summaries)
    Texts.push_back(&S);
  Texts.push_back(&Database);
  for (const std::string &O : Objects)
    Texts.push_back(&O);
  return hashTexts(Texts);
}

std::string perfbench::simulateAndCompare(const Executable &Exe,
                                          const IRRunResult &Ref,
                                          RunStats &Stats) {
  RunResult Run = runExecutable(Exe);
  Stats = Run.Stats;
  if (!Run.Halted)
    return "simulation did not halt: " + Run.Trap +
           (Run.OutOfFuel ? " (out of fuel)" : "");
  if (Run.Output != Ref.Output)
    return "program output differs from the IR interpreter";
  if (Run.ExitCode != Ref.ExitCode)
    return "exit code " + std::to_string(Run.ExitCode) +
           " differs from the IR interpreter's " +
           std::to_string(Ref.ExitCode);
  return "";
}

void QualityTotals::add(const RunStats &S, const Executable &Exe) {
  Cycles.push_back(static_cast<double>(S.Cycles));
  Singletons += static_cast<double>(S.SingletonRefs);
  MemRefs += static_cast<double>(S.MemRefs);
  CodeWords += static_cast<double>(Exe.Code.size());
}

void QualityTotals::report(Outcome &Out) const {
  Out.set("cycles_geomean", geomean(Cycles), "cycles");
  Out.set("singleton_refs", Singletons, "count");
  Out.set("mem_refs", MemRefs, "count");
  Out.set("code_words", CodeWords, "words");
}
