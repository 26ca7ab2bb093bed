//===- ipra_verify_test.cpp - Whole-program IPRA checker tests ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the post-link IPRA invariant checker: clean
/// compilations verify, seeded violations fire, escaping globals stay
/// unpromoted, and the points-to refinement changes allocation but
/// never behavior. Also the analyzer strip-gate: with the points-to
/// consumer off, fact-bearing and fact-free summaries produce
/// byte-identical databases.
///
//===----------------------------------------------------------------------===//

#include "analysis/IPRAVerify.h"
#include "analysis/ModRef.h"
#include "driver/Pipeline.h"
#include "link/ObjectIO.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace ipra;

namespace {

/// A two-module program whose hot global web has both a promoted
/// entry (work) and wrapped calls out of the web (tick can reach the
/// audit reference of g).
const std::vector<SourceFile> &webProgram() {
  static const std::vector<SourceFile> Sources = {
      {"a.mc",
       "int work(int n);\n"
       "void audit();\n"
       "int main() {\n"
       "  int s = 0;\n"
       "  int i = 0;\n"
       "  while (i < 40) { s = s + work(i); i = i + 1; }\n"
       "  audit();\n"
       "  prints(\"s=\");\n"
       "  print(s);\n"
       "  return 0;\n"
       "}\n"},
      {"b.mc",
       "int g;\n"
       "int tick(int n);\n"
       "int work(int n) {\n"
       "  int i = 0;\n"
       "  while (i < 25) {\n"
       "    g = g + n;\n"
       "    if (i % 8 == 3) g = g + tick(i);\n"
       "    i = i + 1;\n"
       "  }\n"
       "  return g % 1000;\n"
       "}\n"},
      {"c.mc",
       "int g;\n"
       "int tick(int n) { return n * 2 + 1; }\n"
       "void audit() {\n"
       "  prints(\"g=\");\n"
       "  print(g);\n"
       "}\n"},
  };
  return Sources;
}

struct Linked {
  BuildResult R;
  std::vector<ObjectFile> Objects;
  ProgramDatabase DB;
};

Linked compileLinked(const std::vector<SourceFile> &Sources,
                     const PipelineConfig &Config) {
  Linked L;
  L.R = Pipeline(Config).build(Sources);
  EXPECT_TRUE(L.R.ok()) << L.R.text();
  if (!L.R.ok())
    return L;
  for (const std::string &Text : L.R.ObjectFiles) {
    ObjectFile Obj;
    std::string Error;
    EXPECT_TRUE(readObjectFile(Text, Obj, Error)) << Error;
    L.Objects.push_back(std::move(Obj));
  }
  // A baseline build runs no analyzer and has no database to read.
  std::string Error;
  EXPECT_TRUE(L.R.DatabaseFile.empty() ||
              ProgramDatabase::deserialize(L.R.DatabaseFile, L.DB, Error))
      << Error;
  return L;
}

/// The first (object, function, promotion) triple whose function is a
/// web entry, or {nullptr, ...}.
struct EntrySite {
  ObjFunction *F = nullptr;
  ProcDirectives Dir;
  PromotedGlobal P;
};

EntrySite findEntry(Linked &L) {
  for (ObjectFile &Obj : L.Objects)
    for (ObjFunction &F : Obj.Functions) {
      ProcDirectives Dir = L.DB.lookup(F.QualName);
      for (const PromotedGlobal &P : Dir.Promoted)
        if (P.IsEntry)
          return {&F, Dir, P};
    }
  return {};
}

bool hasKind(const IPRAVerifyResult &V, IPRAViolationKind Kind) {
  return std::any_of(V.Violations.begin(), V.Violations.end(),
                     [&](const IPRAViolation &X) { return X.Kind == Kind; });
}

//===--------------------------------------------------------------------===//
// Clean programs verify.
//===--------------------------------------------------------------------===//

TEST(IPRAVerifyTest, CleanProgramVerifies) {
  Linked L = compileLinked(webProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_TRUE(V.ok()) << V.text();
  EXPECT_GT(V.FunctionsChecked, 0u);
  EXPECT_GT(V.CallSitesChecked, 0u);
  EXPECT_GT(V.PromotionsChecked, 0u);
  // The program really exercises promotion: some web entry exists.
  EXPECT_TRUE(findEntry(L).F != nullptr);
}

TEST(IPRAVerifyTest, CleanProgramVerifiesUnderEveryConfig) {
  const PipelineConfig Configs[] = {
      PipelineConfig::baseline(), PipelineConfig::configC(),
      PipelineConfig::configD(), PipelineConfig::configE()};
  for (const PipelineConfig &C : Configs) {
    Linked L = compileLinked(webProgram(), C);
    ASSERT_TRUE(L.R.ok());
    IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
    EXPECT_TRUE(V.ok()) << V.text();
  }
}

//===--------------------------------------------------------------------===//
// Seeded violations fire.
//===--------------------------------------------------------------------===//

// Deleting the web entry's prologue load of the promoted global leaves
// the dedicated register uninitialized: MissingEntryLoad.
TEST(IPRAVerifyTest, SeededMissingEntryLoadFires) {
  Linked L = compileLinked(webProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  EntrySite E = findEntry(L);
  ASSERT_TRUE(E.F);
  // The entry load is an LDW into the dedicated register whose address
  // register was just defined by an ADDRG of the global.
  bool Deleted = false;
  for (size_t I = 1; I < E.F->Code.size(); ++I) {
    const MInstr &In = E.F->Code[I];
    const MInstr &Prev = E.F->Code[I - 1];
    if (In.Op == MOp::LDW && In.A.isReg() && In.A.RegNo == E.P.Reg &&
        Prev.Op == MOp::ADDRG && Prev.B.isSym() &&
        Prev.B.SymName == E.P.QualName) {
      E.F->Code.erase(E.F->Code.begin() + static_cast<long>(I - 1),
                      E.F->Code.begin() + static_cast<long>(I + 1));
      Deleted = true;
      break;
    }
  }
  ASSERT_TRUE(Deleted) << "no entry load found in " << E.F->QualName;
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasKind(V, IPRAViolationKind::MissingEntryLoad)) << V.text();
}

// Retargeting a synchronization access to a scratch register breaks
// the "moves the dedicated register" rule: MalformedSync.
TEST(IPRAVerifyTest, SeededWrongRegisterSyncFires) {
  Linked L = compileLinked(webProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  EntrySite E = findEntry(L);
  ASSERT_TRUE(E.F);
  bool Tampered = false;
  for (size_t I = 1; I < E.F->Code.size(); ++I) {
    MInstr &In = E.F->Code[I];
    const MInstr &Prev = E.F->Code[I - 1];
    if (In.Op == MOp::LDW && In.A.isReg() && In.A.RegNo == E.P.Reg &&
        Prev.Op == MOp::ADDRG && Prev.B.isSym() &&
        Prev.B.SymName == E.P.QualName) {
      In.A.RegNo = pr32::RV; // Anything but the dedicated register.
      Tampered = true;
      break;
    }
  }
  ASSERT_TRUE(Tampered);
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasKind(V, IPRAViolationKind::MalformedSync)) << V.text();
}

// Inserting a well-formed store to the promoted global in the web
// interior (before the loop's branches resolve to a sanctioned sync
// point) violates interior silence: InteriorAccess.
TEST(IPRAVerifyTest, SeededInteriorAccessFires) {
  Linked L = compileLinked(webProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  EntrySite E = findEntry(L);
  ASSERT_TRUE(E.F);
  MInstr Addr;
  Addr.Op = MOp::ADDRG;
  Addr.A = MOperand::makeReg(pr32::AT);
  Addr.B = MOperand::makeSym(E.P.QualName);
  MInstr St;
  St.Op = MOp::STW;
  St.A = MOperand::makeReg(E.P.Reg);
  St.B = MOperand::makeReg(pr32::AT);
  St.C = MOperand::makeImm(0);
  St.MC = MemClass::GlobalScalar;
  // Insert at the top: the next boundary is the loop's branch, not a
  // wrapped call or a return.
  E.F->Code.insert(E.F->Code.begin(), {Addr, St});
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasKind(V, IPRAViolationKind::InteriorAccess)) << V.text();
}

// Deleting the frame save/restore of a callee-saves register the
// function writes (the CALLEE directive lists exactly the registers it
// must preserve) leaves the write unprotected: UnsavedCalleeWrite.
TEST(IPRAVerifyTest, SeededUnsavedCalleeWriteFires) {
  Linked L = compileLinked(webProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  EntrySite E = findEntry(L);
  ASSERT_TRUE(E.F);
  // Find a callee-saves register with frame save/restore accesses
  // (STW/LDW against the stack pointer) that is not a dedicated web
  // register, and delete those accesses.
  unsigned Victim = 0;
  for (unsigned R = pr32::FirstCalleeSaved;
       R <= pr32::LastCalleeSaved && !Victim; ++R) {
    if (!(E.Dir.Callee & pr32::maskOf(R)) ||
        (E.Dir.promotedMask() & pr32::maskOf(R)))
      continue;
    for (const MInstr &In : E.F->Code)
      if (In.Op == MOp::STW && In.A.isReg() && In.A.RegNo == R &&
          In.B.isReg() && In.B.RegNo == pr32::SP)
        Victim = R;
  }
  ASSERT_NE(Victim, 0u) << "no frame-saved callee register found";
  auto &Code = E.F->Code;
  Code.erase(std::remove_if(Code.begin(), Code.end(),
                            [&](const MInstr &In) {
                              return (In.Op == MOp::STW ||
                                      In.Op == MOp::LDW) &&
                                     In.A.isReg() &&
                                     In.A.RegNo == Victim &&
                                     In.B.isReg() &&
                                     In.B.RegNo == pr32::SP;
                            }),
             Code.end());
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasKind(V, IPRAViolationKind::UnsavedCalleeWrite))
      << V.text();
}

//===--------------------------------------------------------------------===//
// Safety: escaping globals are never promoted; points-to changes
// allocation, never behavior.
//===--------------------------------------------------------------------===//

TEST(IPRAVerifyTest, TrulyEscapingGlobalNeverPromoted) {
  // g's address is published in an exported pointer and dereferenced
  // from another module: promotion would miss the indirect accesses.
  const std::vector<SourceFile> Sources = {
      {"a.mc",
       "int g;\n"
       "int *p;\n"
       "int poke(int v);\n"
       "int main() {\n"
       "  p = &g;\n"
       "  int i = 0;\n"
       "  int s = 0;\n"
       "  while (i < 30) { g = g + 1; s = s + poke(i); i = i + 1; }\n"
       "  prints(\"g=\");\n"
       "  print(g);\n"
       "  prints(\"s=\");\n"
       "  print(s);\n"
       "  return 0;\n"
       "}\n"},
      {"b.mc",
       "int *p;\n"
       "int poke(int v) { *p = *p + v; return *p % 7; }\n"},
  };
  for (PointsToMode PT : {PointsToMode::Off, PointsToMode::Andersen,
                          PointsToMode::GPG}) {
    PipelineConfig Config = PipelineConfig::configC();
    Config.PointsTo = PT;
    Linked L = compileLinked(Sources, Config);
    ASSERT_TRUE(L.R.ok());
    for (const auto &[Name, Dir] : L.DB.procs())
      for (const PromotedGlobal &P : Dir.Promoted)
        EXPECT_NE(P.QualName, "g")
            << Name << " promotes the escaping global (points-to="
            << enumName(PT) << ")";
    IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
    EXPECT_TRUE(V.ok()) << V.text();
  }
  // And the program behaves identically with and without promotion.
  RunResult Base =
      runExecutable(Pipeline(PipelineConfig::baseline()).build(Sources).Exe);
  RunResult WithC =
      runExecutable(Pipeline(PipelineConfig::configC()).build(Sources).Exe);
  ASSERT_TRUE(Base.Halted);
  ASSERT_TRUE(WithC.Halted);
  EXPECT_EQ(Base.Output, WithC.Output);
}

TEST(IPRAVerifyTest, RefutedEscapePromotesWithIdenticalBehavior) {
  // hits is address-taken (the probe) but the address is never
  // dereferenced and never leaves the module: points-to refutes the
  // escape, promotion proceeds, and the simulator proves behavior
  // unchanged.
  const std::vector<SourceFile> Sources = {
      {"a.mc",
       "int work(int n);\n"
       "int total();\n"
       "int main() {\n"
       "  int i = 0;\n"
       "  int s = 0;\n"
       "  while (i < 40) { s = s + work(i); i = i + 1; }\n"
       "  prints(\"s=\");\n"
       "  print(s);\n"
       "  prints(\"hits=\");\n"
       "  print(total());\n"
       "  return 0;\n"
       "}\n"},
      {"b.mc",
       "static int hits;\n"
       "static int *probe;\n"
       "void arm() { probe = &hits; }\n"
       "static int step(int k) { hits = hits + k; return hits % 9; }\n"
       "int work(int n) {\n"
       "  int i = 0;\n"
       "  while (i < 25) { hits = hits + step(i); i = i + 1; }\n"
       "  return hits % 100 + n;\n"
       "}\n"
       "int total() { return hits; }\n"},
  };
  PipelineConfig On = PipelineConfig::configC();
  PipelineConfig Off = PipelineConfig::configC();
  Off.PointsTo = PointsToMode::Off;

  Linked LOn = compileLinked(Sources, On);
  Linked LOff = compileLinked(Sources, Off);
  ASSERT_TRUE(LOn.R.ok());
  ASSERT_TRUE(LOff.R.ok());

  auto promotesHits = [](const Linked &L) {
    for (const auto &[Name, Dir] : L.DB.procs())
      for (const PromotedGlobal &P : Dir.Promoted)
        if (P.QualName.find("hits") != std::string::npos)
          return true;
    return false;
  };
  EXPECT_TRUE(promotesHits(LOn)) << "points-to failed to unlock promotion";
  EXPECT_FALSE(promotesHits(LOff))
      << "conservative analysis promoted an address-taken global";

  EXPECT_TRUE(verifyIPRA(LOn.Objects, LOn.DB).ok());
  EXPECT_TRUE(verifyIPRA(LOff.Objects, LOff.DB).ok());

  RunResult ROn = runExecutable(LOn.R.Exe);
  RunResult ROff = runExecutable(LOff.R.Exe);
  ASSERT_TRUE(ROn.Halted);
  ASSERT_TRUE(ROff.Halted);
  EXPECT_EQ(ROn.Output, ROff.Output);
  EXPECT_EQ(ROn.ExitCode, ROff.ExitCode);
  // The refined build does strictly fewer memory references.
  EXPECT_LT(ROn.Stats.SingletonRefs, ROff.Stats.SingletonRefs);
}

//===--------------------------------------------------------------------===//
// Strip gate: the analyzer with the points-to consumer off ignores the
// fact fields entirely.
//===--------------------------------------------------------------------===//

TEST(IPRAVerifyTest, AnalyzerIgnoresFactsWhenPointsToOff) {
  // Build fact-bearing summaries through phase 1, then strip the facts
  // by hand; with Options.PointsTo=Off the two databases must be
  // byte-identical.
  PipelineConfig Config = PipelineConfig::configC();
  std::vector<ModuleSummary> WithFacts;
  for (const SourceFile &Src : webProgram()) {
    auto P1 = Pipeline(Config).execute(BuildRequest::summary(Config, {Src}));
    ASSERT_TRUE(P1.ok()) << P1.text();
    ModuleSummary S;
    std::string Error;
    ASSERT_TRUE(readSummary(P1->Summaries[0], S, Error)) << Error;
    S.ConfigFingerprint.clear(); // Hand-built summaries are legacy.
    WithFacts.push_back(std::move(S));
  }
  std::vector<ModuleSummary> Stripped = WithFacts;
  for (ModuleSummary &S : Stripped) {
    for (GlobalSummary &G : S.Globals)
      G.Escape = EscapeVerdict::Escapes;
    for (ProcSummary &P : S.Procs) {
      P.IndTargetsResolved = false;
      P.IndirectTargets.clear();
    }
  }
  AnalyzerOptions Options = AnalyzerOptions::columnC();
  Options.PointsTo = PointsToMode::Off;
  ProgramDatabase A = runAnalyzer(WithFacts, Options);
  ProgramDatabase B = runAnalyzer(Stripped, Options);
  EXPECT_EQ(A.serialize(), B.serialize());

  // And with the consumer on, the facts do change the result for a
  // program that has any (sanity-check the gate is not trivially on).
  AnalyzerOptions On = AnalyzerOptions::columnC();
  ProgramDatabase C = runAnalyzer(WithFacts, On);
  ProgramDatabase D = runAnalyzer(Stripped, On);
  EXPECT_EQ(C.serialize(), D.serialize())
      << "webProgram has no points-to facts; gate-on must match too";
}

//===--------------------------------------------------------------------===//
// The mod/ref invariant (V7): no reachable store to a read-only-promoted
// global's home location.
//===--------------------------------------------------------------------===//

/// A program whose hot global is proven exactly read-only: cfg is read
/// in use()'s loop and written nowhere, so its web drops the Modifies
/// bit and verify gains the read-only-store obligation. The tick call
/// inside the loop keeps the load un-hoistable (the compiler cannot
/// locally prove the callee leaves cfg alone), so the web is hot enough
/// to promote.
const std::vector<SourceFile> &readOnlyProgram() {
  static const std::vector<SourceFile> Sources = {
      {"a.mc",
       "int use(int n);\n"
       "int main() {\n"
       "  int s = 0;\n"
       "  int i = 0;\n"
       "  while (i < 40) { s = s + use(i); i = i + 1; }\n"
       "  prints(\"s=\");\n"
       "  print(s);\n"
       "  return 0;\n"
       "}\n"},
      {"b.mc",
       "int cfg = 3;\n"
       "int tick(int n);\n"
       "int use(int n) {\n"
       "  int i = 0;\n"
       "  int s = 0;\n"
       "  while (i < 25) {\n"
       "    s = s + cfg * n;\n"
       "    if (i % 8 == 3) s = s + tick(i);\n"
       "    i = i + 1;\n"
       "  }\n"
       "  return s % 1000;\n"
       "}\n"},
      {"c.mc",
       "int cfg;\n"
       "int tick(int n) { return cfg + n * 2; }\n"},
  };
  return Sources;
}

TEST(IPRAVerifyTest, CleanReadOnlyPromotionVerifies) {
  Linked L = compileLinked(readOnlyProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  // The database records the verdict...
  ASSERT_TRUE(L.DB.ModRefs.count("cfg"));
  EXPECT_EQ(L.DB.ModRefs.at("cfg").Verdict,
            static_cast<int>(GlobalVerdict::ReadOnly));
  EXPECT_TRUE(L.DB.ModRefs.at("cfg").Exact);
  // ...the global really is promoted somewhere...
  bool CfgPromoted = false;
  for (const auto &[Name, Dir] : L.DB.procs())
    for (const PromotedGlobal &P : Dir.Promoted)
      if (P.QualName == "cfg") {
        CfgPromoted = true;
        // The read-only web dropped its Modifies bit: no exit-sync
        // writeback, no wrap stores.
        EXPECT_FALSE(P.WebModifies) << Name;
      }
  ASSERT_TRUE(CfgPromoted);
  // ...and the untampered objects satisfy V7 with the rest.
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_TRUE(V.ok()) << V.text();
}

// Seeding a store to the read-only-promoted global's home location in
// a main-reachable function (main itself, which does not promote cfg,
// so no other check masks it) fires ReadOnlyStore.
TEST(IPRAVerifyTest, SeededReadOnlyStoreFires) {
  Linked L = compileLinked(readOnlyProgram(), PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  ObjFunction *Main = nullptr;
  for (ObjectFile &Obj : L.Objects)
    for (ObjFunction &F : Obj.Functions)
      if (F.QualName == "main")
        Main = &F;
  ASSERT_TRUE(Main);
  MInstr Addr;
  Addr.Op = MOp::ADDRG;
  Addr.A = MOperand::makeReg(pr32::AT);
  Addr.B = MOperand::makeSym("cfg");
  MInstr St;
  St.Op = MOp::STW;
  St.A = MOperand::makeReg(pr32::RV);
  St.B = MOperand::makeReg(pr32::AT);
  St.C = MOperand::makeImm(0);
  St.MC = MemClass::GlobalScalar;
  Main->Code.insert(Main->Code.begin(), {Addr, St});
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasKind(V, IPRAViolationKind::ReadOnlyStore)) << V.text();
}

// A store in a function no call chain from main reaches is legitimate:
// the dead writer is exactly how a global proves read-only, so the
// reachability-gated check must stay silent on it.
TEST(IPRAVerifyTest, UnreachableWriterDoesNotFireReadOnlyStore) {
  std::vector<SourceFile> Sources = readOnlyProgram();
  Sources.push_back(
      {"d.mc",
       "int cfg;\n"
       "void poke() { cfg = cfg + 1; }\n"});
  Linked L = compileLinked(Sources, PipelineConfig::configC());
  ASSERT_TRUE(L.R.ok());
  ASSERT_TRUE(L.DB.ModRefs.count("cfg"));
  EXPECT_EQ(L.DB.ModRefs.at("cfg").Verdict,
            static_cast<int>(GlobalVerdict::ReadOnly));
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_FALSE(hasKind(V, IPRAViolationKind::ReadOnlyStore)) << V.text();
  EXPECT_TRUE(V.ok()) << V.text();
}

// With --modref=off the allocator behaves exactly as the paper
// describes — and the database carries no verdicts, so V7 is vacuous
// and tampered stores are *not* flagged (the invariant belongs to the
// analysis that proves it).
TEST(IPRAVerifyTest, ModRefOffDropsVerdictRecords) {
  PipelineConfig Off = PipelineConfig::configC();
  Off.ModRef = false;
  Linked L = compileLinked(readOnlyProgram(), Off);
  ASSERT_TRUE(L.R.ok());
  EXPECT_TRUE(L.DB.ModRefs.empty());
  IPRAVerifyResult V = verifyIPRA(L.Objects, L.DB);
  EXPECT_TRUE(V.ok()) << V.text();
}

} // namespace
