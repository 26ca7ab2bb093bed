//===- Lint.cpp - Cross-module diagnostics over the call graph ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "support/Json.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

using namespace ipra;

const char *ipra::lintKindName(LintKind K) {
  switch (K) {
  case LintKind::DeadProc:
    return "dead-proc";
  case LintKind::DeadGlobal:
    return "dead-global";
  case LintKind::WriteOnlyGlobal:
    return "write-only-global";
  case LintKind::UninitReadGlobal:
    return "uninit-read-global";
  case LintKind::ArityMismatch:
    return "arity-mismatch";
  case LintKind::EmptyIndirectTargets:
    return "empty-indirect-targets";
  }
  return "dead-proc";
}

std::string LintDiagnostic::render() const {
  return std::string("lint: ") + lintKindName(Kind) + ": " + Symbol + ": " +
         Message;
}

std::string LintDiagnostic::renderJson() const {
  json::Value O = json::Value::object();
  O.set("kind", json::Value::str(lintKindName(Kind)));
  O.set("module", json::Value::str(Module));
  O.set("symbol", json::Value::str(Symbol));
  O.set("message", json::Value::str(Message));
  return O.dump();
}

std::string LintResult::text() const {
  std::ostringstream OS;
  for (const LintDiagnostic &D : Diagnostics)
    OS << D.render() << "\n";
  return OS.str();
}

std::string LintResult::json() const {
  std::ostringstream OS;
  for (const LintDiagnostic &D : Diagnostics)
    OS << D.renderJson() << "\n";
  return OS.str();
}

namespace {

/// The synthetic "<module>:.data" record carrying 'func g = &f;'
/// address-taken facts for procedure-less modules is not a procedure.
bool isPseudoProc(const std::string &QualName) {
  return QualName.ends_with(":.data");
}

} // namespace

LintResult ipra::runLint(const std::vector<ModuleSummary> &Summaries,
                         const CallGraph &CG, const ModRefInfo &MR,
                         const std::string &SuppressModule) {
  LintResult Res;
  auto Suppressed = [&](const std::string &Module) {
    return !SuppressModule.empty() && Module == SuppressModule;
  };
  auto Emit = [&](LintKind Kind, const std::string &Module,
                  const std::string &Symbol, std::string Message) {
    if (Suppressed(Module))
      return;
    Res.Diagnostics.push_back(
        LintDiagnostic{Kind, Module, Symbol, std::move(Message)});
  };

  // Dead procedures. Only meaningful when a main anchored the
  // reachability walk; the start-node fallback calls everything live.
  if (MR.HasMain)
    for (const CGNode &N : CG.nodes()) {
      if (!N.HasSummary || MR.entryReachable(N.Id) ||
          N.QualName == "main" || isPseudoProc(N.QualName))
        continue;
      Emit(LintKind::DeadProc, N.Module, N.QualName,
           "no call chain from the program entry reaches this procedure");
    }

  // Global verdicts: dead / write-only / uninitialized-read.
  // Compiler-synthesized globals (dot-named, e.g. a module's string
  // literal pool) are accessed through address arithmetic the summary
  // ref records never see; they are not user symbols, so stay silent.
  auto Synthesized = [](const std::string &Qual) {
    size_t Colon = Qual.rfind(':');
    size_t Base = Colon == std::string::npos ? 0 : Colon + 1;
    return Base < Qual.size() && Qual[Base] == '.';
  };
  for (const auto &[Qual, Fact] : CG.globals()) {
    if (Synthesized(Qual))
      continue;
    const GlobalModRef *V = MR.lookup(Qual);
    if (!V || !V->Exact)
      continue;
    if (V->Verdict == GlobalVerdict::Dead)
      Emit(LintKind::DeadGlobal, Fact.Module, Qual,
           "no entry-reachable procedure reads or writes this global");
    else if (V->Verdict == GlobalVerdict::WriteOnly)
      Emit(LintKind::WriteOnlyGlobal, Fact.Module, Qual,
           "written but never read; the stored values are unobservable");
    else if (V->UninitRead)
      Emit(LintKind::UninitReadGlobal, Fact.Module, Qual,
           "read but never written and carries no initializer; every "
           "read observes the zero fill");
  }

  // Cross-module arity mismatches. Within one module Sema already
  // checks every site against the local declaration; across modules
  // nothing did — until here.
  std::map<std::string, const ProcSummary *> Defs;
  for (const ModuleSummary &S : Summaries)
    for (const ProcSummary &P : S.Procs)
      if (P.NumParams >= 0)
        Defs.emplace(P.QualName, &P);
  for (const ModuleSummary &S : Summaries)
    for (const ProcSummary &P : S.Procs)
      for (const CallSummary &C : P.Calls) {
        if (C.Args < 0)
          continue;
        auto It = Defs.find(C.QualCallee);
        if (It == Defs.end())
          continue;
        const ProcSummary &Def = *It->second;
        if (Def.Module == P.Module || C.Args == Def.NumParams)
          continue;
        Emit(LintKind::ArityMismatch, P.Module, C.QualCallee,
             "called from " + P.QualName + " with " +
                 std::to_string(C.Args) + " argument(s) but defined in " +
                 Def.Module + " with " + std::to_string(Def.NumParams) +
                 " parameter(s)");
      }

  // Indirect call sites whose proven target set is empty: the
  // points-to analysis resolved the site and found nothing it can
  // ever dispatch to.
  for (const CGNode &N : CG.nodes()) {
    if (!N.HasSummary || !N.MakesIndirectCalls || !CG.indirectResolved(N.Id))
      continue;
    if (!CG.indirectTargetsOf(N.Id).empty() || !MR.entryReachable(N.Id))
      continue;
    Emit(LintKind::EmptyIndirectTargets, N.Module, N.QualName,
         "makes indirect calls but the proven target set is empty; "
         "every indirect call here must fail");
  }

  std::sort(Res.Diagnostics.begin(), Res.Diagnostics.end(),
            [](const LintDiagnostic &A, const LintDiagnostic &B) {
              return std::tie(A.Kind, A.Symbol, A.Module, A.Message) <
                     std::tie(B.Kind, B.Symbol, B.Module, B.Message);
            });
  return Res;
}
