//===- gpg_test.cpp - GPG summary construction and composition tests ------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the flow- and context-sensitive points-to pass (DESIGN.md
/// §14): per-procedure GPG residue construction, the bottom-up
/// composition that strengthens escape verdicts and indirect-call
/// target sets, the subsumption invariant against the Andersen-style
/// per-module pass (randomized differential), the v4 serialization of
/// the residue, and the delta-analyzer interaction of GPG-only edits.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "../property/ProgramGen.h"

#include "analysis/GPG.h"
#include "analysis/GPGCompose.h"
#include "analysis/PointsTo.h"
#include "core/Analyzer.h"
#include "core/DeltaAnalyzer.h"
#include "summary/Summary.h"
#include "summary/SummaryDiff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace ipra;
using ipra::test::compileToIR;

namespace {

std::unique_ptr<IRModule> lower(const std::string &Name,
                                const std::string &Source) {
  DiagnosticEngine Diags;
  auto M = compileToIR(Name, Source, Diags);
  EXPECT_TRUE(M) << Diags.renderAll();
  return M;
}

/// Phase 1 as the pipeline runs it in GPG mode: base summary, Andersen
/// verdicts, then the GPG residue.
ModuleSummary summarize(const IRModule &M) {
  ModuleSummary S = buildModuleSummary(M, {});
  ModulePointsTo PT(M);
  PT.applyToSummary(S);
  buildGPGSummary(M, S);
  return S;
}

const GlobalSummary *findGlobal(const std::vector<ModuleSummary> &Mods,
                                const std::string &Plain) {
  for (const ModuleSummary &S : Mods)
    for (const GlobalSummary &G : S.Globals)
      if (G.QualName == Plain ||
          G.QualName.find(":" + Plain) != std::string::npos)
        return &G;
  return nullptr;
}

const ProcSummary *findProc(const std::vector<ModuleSummary> &Mods,
                            const std::string &Plain) {
  for (const ModuleSummary &S : Mods)
    for (const ProcSummary &P : S.Procs)
      if (P.QualName == Plain ||
          P.QualName.find(":" + Plain) != std::string::npos)
        return &P;
  return nullptr;
}

std::string serializeAll(const std::vector<ModuleSummary> &Mods) {
  std::string Out;
  for (const ModuleSummary &S : Mods)
    Out += writeSummary(S);
  return Out;
}

// The list.mc pattern from bench/programs/ptrchase: the cursor is
// aimed at `hot` and then re-aimed at `scratch` before every write
// through it. Flow-sensitively `hot` is never reached by a pointer.
const char *RetargetSource = "static int hot;\n"
                             "static int scratch;\n"
                             "static int *cur;\n"
                             "int touch(int k) {\n"
                             "  cur = &hot;\n"
                             "  cur = &scratch;\n"
                             "  *cur = *cur + k;\n"
                             "  hot = hot + 1;\n"
                             "  return hot;\n"
                             "}\n";

//===--------------------------------------------------------------------===//
// Residue construction and serialization (format v4).
//===--------------------------------------------------------------------===//

// Every procedure of the module gets a residue, including the
// synthetic ":.data" pseudo-proc for global initializers.
TEST(GPGTest, ResidueCoversEveryProcedure) {
  auto M = lower("gpg.mc", "int impl(int x) { return x + 1; }\n"
                           "func hook = &impl;\n"
                           "static int n;\n"
                           "int run(int x) { return hook(x) + n; }\n");
  ASSERT_TRUE(M);
  ModuleSummary S = buildModuleSummary(*M, {});
  GPGBuildStats Stats = buildGPGSummary(*M, S);
  EXPECT_GT(Stats.Updates, 0ull);
  EXPECT_GT(Stats.CallSites, 0ull);
  EXPECT_GT(Stats.Iterations, 0ull);
  ASSERT_FALSE(S.Procs.empty());
  for (const ProcSummary &P : S.Procs)
    EXPECT_TRUE(P.HasGPG) << P.QualName;
  // The initializer rides in FuncInit, not in any residue.
  std::vector<ModuleSummary> Mods;
  Mods.push_back(S);
  const GlobalSummary *Hook = findGlobal(Mods, "hook");
  ASSERT_TRUE(Hook);
  EXPECT_NE(Hook->FuncInit.find("impl"), std::string::npos);
}

// A data-only module (a func initializer and no procedure bodies)
// summarizes to the synthetic ":.data" pseudo-proc; it too is marked
// HasGPG (with an empty residue) so it cannot disqualify composition.
TEST(GPGTest, DataOnlyModulePseudoProcCarriesResidueFlag) {
  auto M = lower("data.mc", "int impl(int x);\n"
                            "func hook = &impl;\n");
  ASSERT_TRUE(M);
  ModuleSummary S = buildModuleSummary(*M, {});
  buildGPGSummary(*M, S);
  ASSERT_EQ(S.Procs.size(), 1u);
  EXPECT_NE(S.Procs[0].QualName.find(":.data"), std::string::npos);
  EXPECT_TRUE(S.Procs[0].HasGPG);
  EXPECT_TRUE(S.Procs[0].GPG.empty());
  EXPECT_TRUE(gpgCompositionApplies({S}));
  S.Procs[0].HasGPG = false;
  EXPECT_FALSE(gpgCompositionApplies({S}));
  EXPECT_FALSE(gpgCompositionApplies({}));
}

// gpu/gpgcall/gpgsite/finit records survive a write/read round trip
// exactly.
TEST(GPGTest, ResidueSurvivesSerializationRoundTrip) {
  auto M = lower("rt.mc", std::string(RetargetSource) +
                              "int impl(int x) { return x; }\n"
                              "func hook = &impl;\n"
                              "int call(int x) { return hook(x); }\n");
  ASSERT_TRUE(M);
  ModuleSummary S = summarize(*M);
  std::string Text = writeSummary(S);
  EXPECT_NE(Text.find("gpg=1"), std::string::npos);
  EXPECT_NE(Text.find("gpu "), std::string::npos);
  EXPECT_NE(Text.find("finit="), std::string::npos);
  ModuleSummary Back;
  std::string Error;
  ASSERT_TRUE(readSummary(Text, Back, Error)) << Error;
  EXPECT_EQ(S.Procs, Back.Procs);
  EXPECT_EQ(S.Globals, Back.Globals);
  EXPECT_EQ(Text, writeSummary(Back));
}

// A syntactically damaged gpu record is a parse error, not a silently
// weaker (or stronger) residue.
TEST(GPGTest, TamperedResidueRecordIsRejected) {
  auto M = lower("tp.mc", RetargetSource);
  ASSERT_TRUE(M);
  std::string Text = writeSummary(summarize(*M));
  size_t Pos = Text.find("gpu ");
  ASSERT_NE(Pos, std::string::npos);
  size_t Eol = Text.find('\n', Pos);
  std::string Tampered =
      Text.substr(0, Pos) + "gpu mangled\n" + Text.substr(Eol + 1);
  ModuleSummary Back;
  std::string Error;
  EXPECT_FALSE(readSummary(Tampered, Back, Error));
  EXPECT_FALSE(Error.empty());
}

//===--------------------------------------------------------------------===//
// Composition precision.
//===--------------------------------------------------------------------===//

// Flow-sensitivity: the Andersen pass sees both cursor targets and
// demotes both to ModuleLocal; the composed GPG proves the writes only
// ever land in `scratch` and strengthens `hot` to Refuted.
TEST(GPGTest, FlowSensitiveRetargetingRefutesBeyondAndersen) {
  auto M = lower("flow.mc", RetargetSource);
  ASSERT_TRUE(M);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*M));
  const GlobalSummary *Hot = findGlobal(Mods, "hot");
  const GlobalSummary *Scratch = findGlobal(Mods, "scratch");
  ASSERT_TRUE(Hot && Scratch);
  EXPECT_EQ(Hot->Escape, EscapeVerdict::ModuleLocal);
  EXPECT_EQ(Scratch->Escape, EscapeVerdict::ModuleLocal);

  GPGComposeStats Stats;
  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true, &Stats));
  Hot = findGlobal(Mods, "hot");
  Scratch = findGlobal(Mods, "scratch");
  EXPECT_EQ(Hot->Escape, EscapeVerdict::Refuted);
  EXPECT_EQ(Scratch->Escape, EscapeVerdict::ModuleLocal);
  EXPECT_EQ(Stats.RefutedBeyondAndersen, 1);
  EXPECT_GT(Stats.ComposedProcs, 0);
}

// Context-sensitivity: apply() calls through its func parameter, whose
// bindings exist only in a caller in another module. Per-module
// analysis must leave the site unresolved; the composition inlines the
// callers' argument bindings and resolves it exactly.
TEST(GPGTest, ParameterBindingResolvesDispatcherAcrossModules) {
  auto Caller = lower("drv.mc", "int apply(func f, int x);\n"
                                "static int up(int x) { return x + 7; }\n"
                                "static int down(int x) { return x - 3; }\n"
                                "int main() {\n"
                                "  int a = apply(&up, 1);\n"
                                "  return apply(&down, a);\n"
                                "}\n");
  auto Callee = lower("lib.mc", "int apply(func f, int x) {\n"
                                "  return f(x);\n"
                                "}\n");
  ASSERT_TRUE(Caller && Callee);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*Caller));
  Mods.push_back(summarize(*Callee));

  const ProcSummary *Apply = findProc(Mods, "apply");
  ASSERT_TRUE(Apply);
  EXPECT_FALSE(Apply->IndTargetsResolved); // Andersen: exported surface.

  GPGComposeStats Stats;
  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true, &Stats));
  Apply = findProc(Mods, "apply");
  ASSERT_TRUE(Apply->IndTargetsResolved);
  ASSERT_EQ(Apply->IndirectTargets.size(), 2u);
  EXPECT_NE(Apply->IndirectTargets[0].find("down"), std::string::npos);
  EXPECT_NE(Apply->IndirectTargets[1].find("up"), std::string::npos);
  EXPECT_GE(Stats.ResolvedBeyondAndersen, 1);
  EXPECT_GT(Stats.Contexts, 0);
}

// A channel index too long for an int, in summary text from outside the
// toolchain, is an unparseable channel: it resolves to unknown, so the
// indirect site it feeds stays unresolved.
TEST(GPGTest, OverlongChannelIndexResolvesToUnknown) {
  auto Caller = lower("drv.mc", "int apply(func f, int x);\n"
                                "static int up(int x) { return x + 7; }\n"
                                "int main() { return apply(&up, 1); }\n");
  auto Callee = lower("lib.mc", "int apply(func f, int x) {\n"
                                "  return f(x);\n"
                                "}\n");
  ASSERT_TRUE(Caller && Callee);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*Caller));
  std::string Text = writeSummary(summarize(*Callee));
  size_t Replaced = 0;
  for (size_t At = Text.find(" p:0^"); At != std::string::npos;
       At = Text.find(" p:0^", At + 1), ++Replaced)
    Text.replace(At + 3, 1, "99999999999");
  ASSERT_GT(Replaced, 0u) << Text;
  std::string Error;
  ASSERT_TRUE(readSummary(Text, Mods.emplace_back(), Error)) << Error;

  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true));
  const ProcSummary *Apply = findProc(Mods, "apply");
  ASSERT_TRUE(Apply);
  EXPECT_FALSE(Apply->IndTargetsResolved);
  EXPECT_TRUE(Apply->IndirectTargets.empty());
}

// An exported function-pointer global written in one module and called
// through in another: per-module Andersen cannot resolve either side,
// the closed-world composition merges the contents across modules.
TEST(GPGTest, ExportedFunctionPointerResolvesClosedWorld) {
  auto Writer = lower("wr.mc", "func hook;\n"
                               "static int impl(int x) { return x * 2; }\n"
                               "void arm() { hook = &impl; }\n");
  auto Reader = lower("rd.mc", "func hook;\n"
                               "int fire(int x) { return hook(x); }\n");
  ASSERT_TRUE(Writer && Reader);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*Writer));
  Mods.push_back(summarize(*Reader));
  const ProcSummary *Fire = findProc(Mods, "fire");
  ASSERT_TRUE(Fire);
  EXPECT_FALSE(Fire->IndTargetsResolved);

  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true));
  Fire = findProc(Mods, "fire");
  ASSERT_TRUE(Fire->IndTargetsResolved);
  ASSERT_EQ(Fire->IndirectTargets.size(), 1u);
  EXPECT_NE(Fire->IndirectTargets[0].find("impl"), std::string::npos);
}

// Library mode (§7.2 open world): an unseen module may rebind the
// exported pointer, so the same program must stay unresolved.
TEST(GPGTest, OpenWorldKeepsExportedSurfaceConservative) {
  auto Writer = lower("wr.mc", "func hook;\n"
                               "static int impl(int x) { return x * 2; }\n"
                               "void arm() { hook = &impl; }\n"
                               "static int cell;\n"
                               "int *pub;\n"
                               "void share() { pub = &cell; }\n");
  auto Reader = lower("rd.mc", "func hook;\n"
                               "int fire(int x) { return hook(x); }\n");
  ASSERT_TRUE(Writer && Reader);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*Writer));
  Mods.push_back(summarize(*Reader));
  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/false));
  // The hook bindings may come from unseen modules: unresolved.
  const ProcSummary *Fire = findProc(Mods, "fire");
  ASSERT_TRUE(Fire);
  EXPECT_FALSE(Fire->IndTargetsResolved);
  // An address published through an exported pointer is reachable by
  // unseen modules even though no in-world load dereferences it.
  const GlobalSummary *Cell = findGlobal(Mods, "cell");
  ASSERT_TRUE(Cell);
  EXPECT_EQ(Cell->Escape, EscapeVerdict::Escapes);
}

// The applicability gate: if any procedure lacks a residue (a summary
// written by an Andersen-mode or pre-v4 phase 1), the composition
// declines and leaves every summary untouched.
TEST(GPGTest, MissingResidueDisablesCompositionEntirely) {
  auto M = lower("gate.mc", RetargetSource);
  ASSERT_TRUE(M);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*M));
  Mods.push_back(Mods[0]);
  Mods[1].Module += "2";
  ASSERT_FALSE(Mods[1].Procs.empty());
  Mods[1].Procs[0].HasGPG = false;
  std::string Before = serializeAll(Mods);
  GPGComposeStats Stats;
  EXPECT_FALSE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true, &Stats));
  EXPECT_EQ(serializeAll(Mods), Before);
  EXPECT_EQ(Stats.ComposedProcs, 0);
}

// Strengthening is idempotent: the pipeline strengthens in
// runAnalyzer and again on the delta path, so a second application
// must be a fixed point.
TEST(GPGTest, StrengtheningIsIdempotent) {
  auto Caller = lower("drv.mc", "int apply(func f, int x);\n"
                                "static int up(int x) { return x + 7; }\n"
                                "int main() { return apply(&up, 1); }\n");
  auto Callee = lower("lib.mc", std::string(RetargetSource) +
                                    "int apply(func f, int x) {\n"
                                    "  return f(x) + touch(x);\n"
                                    "}\n");
  ASSERT_TRUE(Caller && Callee);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*Caller));
  Mods.push_back(summarize(*Callee));
  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true));
  std::string Once = serializeAll(Mods);
  ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true));
  EXPECT_EQ(serializeAll(Mods), Once);
}

//===--------------------------------------------------------------------===//
// Differential subsumption against Andersen (randomized).
//===--------------------------------------------------------------------===//

// On randomized programs, the composed GPG facts are provably no
// weaker than the per-module Andersen facts: every escape verdict is
// at least as strong, every resolved indirect site stays resolved, and
// every resolved target set only shrinks.
TEST(GPGTest, ComposedFactsSubsumeAndersenOnRandomPrograms) {
  for (unsigned Seed = 1; Seed <= 20; ++Seed) {
    std::vector<SourceFile> Sources = test::generateRandomProgram(Seed);
    std::vector<ModuleSummary> Mods;
    bool CompileOk = true;
    for (const SourceFile &Src : Sources) {
      DiagnosticEngine Diags;
      auto M = compileToIR(Src.Name, Src.Text, Diags);
      ASSERT_TRUE(M) << "seed " << Seed << ": " << Diags.renderAll();
      if (!M) {
        CompileOk = false;
        break;
      }
      Mods.push_back(summarize(*M));
    }
    if (!CompileOk)
      continue;

    // Snapshot the Andersen facts.
    std::map<std::string, EscapeVerdict> AVerdict;
    std::map<std::string, std::vector<std::string>> ATargets;
    std::map<std::string, bool> AResolved;
    for (const ModuleSummary &S : Mods) {
      for (const GlobalSummary &G : S.Globals)
        AVerdict[G.QualName] = G.Escape;
      for (const ProcSummary &P : S.Procs) {
        AResolved[P.QualName] = P.IndTargetsResolved;
        ATargets[P.QualName] = P.IndirectTargets;
      }
    }

    ASSERT_TRUE(strengthenSummariesWithGPG(Mods, /*ClosedWorld=*/true))
        << "seed " << Seed;

    for (const ModuleSummary &S : Mods) {
      for (const GlobalSummary &G : S.Globals)
        EXPECT_GE(static_cast<int>(G.Escape),
                  static_cast<int>(AVerdict[G.QualName]))
            << "seed " << Seed << " global " << G.QualName;
      for (const ProcSummary &P : S.Procs) {
        if (!AResolved[P.QualName])
          continue;
        EXPECT_TRUE(P.IndTargetsResolved)
            << "seed " << Seed << " proc " << P.QualName;
        for (const std::string &T : P.IndirectTargets)
          EXPECT_TRUE(std::find(ATargets[P.QualName].begin(),
                                ATargets[P.QualName].end(),
                                T) != ATargets[P.QualName].end())
              << "seed " << Seed << " proc " << P.QualName << " target "
              << T << " not in the Andersen set";
      }
    }
  }
}

//===--------------------------------------------------------------------===//
// Delta interaction: GPG-only edits.
//===--------------------------------------------------------------------===//

// A summary whose only difference is a GPG record is not Identical;
// the diff pins the change to exactly that procedure record without
// raising any shape flag.
TEST(GPGTest, ResidueOnlyEditFlagsExactlyThatProc) {
  auto M = lower("diff.mc", RetargetSource);
  ASSERT_TRUE(M);
  ModuleSummary Old = summarize(*M);
  ModuleSummary New = Old;
  int Touched = -1;
  for (size_t I = 0; I < New.Procs.size(); ++I)
    if (!New.Procs[I].GPG.empty()) {
      GPGUpdate Dup = New.Procs[I].GPG.back();
      Dup.Ord += 1;
      New.Procs[I].GPG.push_back(Dup);
      Touched = static_cast<int>(I);
      break;
    }
  ASSERT_GE(Touched, 0);
  ModuleSummaryDelta Delta = diffModuleSummary(Old, New);
  EXPECT_FALSE(Delta.Identical);
  EXPECT_FALSE(Delta.ProcSequenceChanged);
  EXPECT_FALSE(Delta.AddrTakenSetChanged);
  EXPECT_FALSE(Delta.GlobalsChanged);
  ASSERT_EQ(Delta.ChangedProcs.size(), 1u);
  EXPECT_EQ(Delta.ChangedProcs[0], Touched);
}

// The delta analyzer takes the damage-region path for a semantically
// neutral residue edit — re-analyzing only the affected SCC rows — and
// still reproduces the cold database byte for byte.
TEST(GPGTest, ResidueOnlyEditDamagesOnlyAffectedSccs) {
  auto A = lower("a.mc", "int touch(int k);\n"
                         "int helper(int x) { return touch(x) + 1; }\n"
                         "int main() { return helper(3); }\n");
  auto B = lower("b.mc", std::string(RetargetSource) +
                             "int leaf(int x) { return x * 3; }\n");
  ASSERT_TRUE(A && B);
  std::vector<ModuleSummary> Mods;
  Mods.push_back(summarize(*A));
  Mods.push_back(summarize(*B));

  AnalyzerOptions Options;
  DeltaAnalyzer DA;
  DA.analyze(Mods, Options);
  EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full); // Cold prime.

  // Duplicate the last update of touch()'s residue: the record set
  // changes, the composed facts do not.
  bool Edited = false;
  for (ModuleSummary &S : Mods)
    for (ProcSummary &P : S.Procs)
      if (!Edited && P.QualName.find("touch") != std::string::npos &&
          !P.GPG.empty()) {
        GPGUpdate Dup = P.GPG.back();
        Dup.Ord += 1;
        P.GPG.push_back(Dup);
        Edited = true;
      }
  ASSERT_TRUE(Edited);

  const ProgramDatabase &Got = DA.analyze(Mods, Options);
  EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Incremental)
      << DA.deltaStats().FallbackReason;
  EXPECT_EQ(DA.deltaStats().ChangedProcs, 1);
  EXPECT_LT(DA.deltaStats().DamagedSccs, DA.deltaStats().TotalSccs);
  EXPECT_EQ(Got.serialize(), runAnalyzer(Mods, Options).serialize());
}

} // namespace
