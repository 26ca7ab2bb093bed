//===- delta_analyzer_test.cpp - Delta vs cold full analysis --------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Randomized edit-sequence equivalence: starting from a random
/// multi-module program, apply a stream of random module edits — global
/// reference changes, call edge rewires, frequency tweaks, register
/// footprint changes, plus structural edits (new procedures, flipped
/// global facts, address-taken changes) that force the documented
/// fallbacks — and after every edit require the DeltaAnalyzer's spliced
/// database to be byte-identical to a cold runAnalyzer over the same
/// summaries, at 1 and 8 discovery threads. Runs under
/// -DIPRA_SANITIZE=thread in the verify flow to catch races in the
/// parallel re-discovery.
///
//===----------------------------------------------------------------------===//

#include "core/DeltaAnalyzer.h"
#include "support/Json.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

#include <random>

using namespace ipra;

namespace {

/// A randomized program (tests/testutil/RandomProgram.h), same shape
/// family as the analyzer-equivalence suite: three or four modules of
/// 8..13 procedures with caller-saves masks, 8..13 globals and one or
/// two indirect callers.
std::vector<ModuleSummary> randomProgram(unsigned SeedValue) {
  return test::randomProgram({.Modules = {3, 2},
                               .ProcsPerModule = {8, 6},
                               .Globals = {8, 6},
                               .DrawCallerRegs = true,
                               .IndirectCallers = {1, 2}},
                             SeedValue);
}

/// Names of every global across the program (edit targets).
std::vector<std::string>
globalNames(const std::vector<ModuleSummary> &Mods) {
  std::vector<std::string> Names;
  for (const ModuleSummary &S : Mods)
    for (const GlobalSummary &G : S.Globals)
      Names.push_back(G.QualName);
  return Names;
}

std::vector<std::string>
procNames(const std::vector<ModuleSummary> &Mods) {
  std::vector<std::string> Names;
  for (const ModuleSummary &S : Mods)
    for (const ProcSummary &P : S.Procs)
      Names.push_back(P.QualName);
  return Names;
}

/// Applies one random edit to a random module. Most edits are
/// expressible by the delta path; some (new procedure, flipped global
/// fact, new address-taken procedure) intentionally exercise the
/// fallback-to-full path.
void applyRandomEdit(std::vector<ModuleSummary> &Mods, std::mt19937 &Rng) {
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % static_cast<unsigned>(N));
  };
  ModuleSummary &Mod = Mods[Rand(static_cast<int>(Mods.size()))];
  ProcSummary &P = Mod.Procs[Rand(static_cast<int>(Mod.Procs.size()))];
  std::vector<std::string> Globals = globalNames(Mods);
  std::vector<std::string> Procs = procNames(Mods);

  switch (Rand(14)) {
  case 0: // Re-weight a global reference.
    if (!P.GlobalRefs.empty()) {
      P.GlobalRefs[Rand(static_cast<int>(P.GlobalRefs.size()))].Freq =
          1 + Rand(200);
    }
    break;
  case 1: // Reference another global.
    P.GlobalRefs.push_back(GlobalRefSummary{
        Globals[Rand(static_cast<int>(Globals.size()))], 1 + Rand(100),
        Rand(3) == 0});
    break;
  case 2: // Drop a global reference.
    if (!P.GlobalRefs.empty())
      P.GlobalRefs.erase(P.GlobalRefs.begin() +
                         Rand(static_cast<int>(P.GlobalRefs.size())));
    break;
  case 3: // Flip a store bit.
    if (!P.GlobalRefs.empty()) {
      GlobalRefSummary &R =
          P.GlobalRefs[Rand(static_cast<int>(P.GlobalRefs.size()))];
      R.Stores = !R.Stores;
    }
    break;
  case 4: // Register footprint change.
    P.CalleeRegsNeeded = static_cast<unsigned>(Rand(14));
    P.CallerRegsUsed = static_cast<unsigned>(Rand(0x3fff));
    break;
  case 5: // Re-weight a call edge.
    if (!P.Calls.empty())
      P.Calls[Rand(static_cast<int>(P.Calls.size()))].Freq = 1 + Rand(60);
    break;
  case 6: // New call edge (possibly creating recursion).
    P.Calls.push_back(CallSummary{
        Procs[Rand(static_cast<int>(Procs.size()))], 1 + Rand(40)});
    break;
  case 7: // Drop a call edge (possibly making a leaf).
    if (!P.Calls.empty())
      P.Calls.erase(P.Calls.begin() +
                    Rand(static_cast<int>(P.Calls.size())));
    break;
  case 8: // Toggle unresolved indirect calls.
    P.MakesIndirectCalls = !P.MakesIndirectCalls;
    P.IndirectCallFreq = 1 + Rand(10);
    break;
  case 9: // Re-weight indirect calls.
    if (P.MakesIndirectCalls)
      P.IndirectCallFreq = 1 + Rand(20);
    break;
  case 10: { // New procedure (forces fallback: sequence change).
    ProcSummary NewP;
    NewP.QualName = "q" + std::to_string(Rng() % 100000);
    NewP.Module = Mod.Module;
    NewP.CalleeRegsNeeded = static_cast<unsigned>(Rand(14));
    if (!Globals.empty())
      NewP.GlobalRefs.push_back(GlobalRefSummary{
          Globals[Rand(static_cast<int>(Globals.size()))], 1 + Rand(50),
          false});
    Mod.Procs.push_back(std::move(NewP));
    break;
  }
  case 11: // Flip a global fact (forces fallback: facts change).
    if (!Mod.Globals.empty()) {
      GlobalSummary &G =
          Mod.Globals[Rand(static_cast<int>(Mod.Globals.size()))];
      G.Aliased = !G.Aliased;
    }
    break;
  case 12: // Take another procedure's address (forces fallback).
    P.AddressTakenProcs.push_back(
        Procs[Rand(static_cast<int>(Procs.size()))]);
    if (!P.MakesIndirectCalls) {
      P.MakesIndirectCalls = true;
      P.IndirectCallFreq = 1 + Rand(5);
    }
    break;
  default: // No-op rebuild of the module (identical summary).
    break;
  }
}

AnalyzerOptions deltaOptions() {
  AnalyzerOptions Options;
  Options.Promotion = PromotionMode::Webs;
  Options.SpillMotion = true;
  Options.SplitSparseWebs = true;
  Options.CallerSavePropagation = true;
  Options.RelaxWebAvail = true;
  Options.ImprovedFreeSets = true;
  return Options;
}

/// \p S through the AnalyzerStats field list without the timings (the
/// `*-ms` keys): the counters, which describe the analyzed program
/// however it was analyzed.
json::Value counters(const AnalyzerStats &S) {
  json::Value All = json::encode(S), Out = json::Value::object();
  for (const auto &[Key, V] : All.members())
    if (!Key.ends_with("-ms"))
      Out.set(Key, V);
  return Out;
}

constexpr unsigned NumSeeds = 12;
constexpr int EditsPerSeed = 14;

/// The workhorse: N random edits, each followed by a byte-compare of
/// the delta database against a cold full analysis, and of the delta
/// run's counters against the cold run's.
void runEditSequence(AnalyzerOptions Options, const CallProfile &Profile,
                     unsigned SeedValue) {
  std::mt19937 Rng(SeedValue * 7919 + 1);
  std::vector<ModuleSummary> Mods = randomProgram(SeedValue);
  DeltaAnalyzer DA;
  bool SawIncremental = false, SawFallback = false;
  for (int Edit = 0; Edit <= EditsPerSeed; ++Edit) {
    const ProgramDatabase &Got = DA.analyze(Mods, Options, Profile);
    AnalyzerStats ColdStats;
    ProgramDatabase Cold = runAnalyzer(Mods, Options, Profile, &ColdStats);
    ASSERT_EQ(Got.serialize(), Cold.serialize())
        << "seed " << SeedValue << " edit " << Edit << " mode "
        << (DA.deltaStats().Mode == DeltaMode::Incremental ? "delta"
                                                           : "full")
        << " fallback '" << DA.deltaStats().FallbackReason << "'";
    ASSERT_EQ(counters(DA.stats()).dump(), counters(ColdStats).dump())
        << "seed " << SeedValue << " edit " << Edit;
    if (Edit > 0) {
      if (DA.deltaStats().Mode == DeltaMode::Incremental)
        SawIncremental = true;
      else
        SawFallback = true;
    }
    applyRandomEdit(Mods, Rng);
  }
  // The edit mix contains both expressible and fallback edits; a run
  // that never took the delta path would vacuously pass.
  EXPECT_TRUE(SawIncremental) << "seed " << SeedValue;
  (void)SawFallback; // Fallbacks are expected but not per-seed certain.
}

TEST(DeltaAnalyzer, EditSequenceMatchesColdFullAnalysis) {
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed)
    runEditSequence(deltaOptions(), CallProfile(), Seed);
}

TEST(DeltaAnalyzer, EditSequenceMatchesAtEightThreads) {
  AnalyzerOptions Options = deltaOptions();
  Options.NumThreads = 8;
  for (unsigned Seed = 0; Seed < NumSeeds / 2; ++Seed)
    runEditSequence(Options, CallProfile(), Seed);
}

TEST(DeltaAnalyzer, EditSequenceMatchesWithProfile) {
  for (unsigned Seed = 100; Seed < 100 + NumSeeds / 2; ++Seed) {
    // A stable profile: invocation estimates come from measured counts
    // keyed by name, so graph patches leave them untouched.
    std::vector<ModuleSummary> Mods = randomProgram(Seed);
    CallProfile Profile;
    std::mt19937 Rng(Seed + 17);
    for (const std::string &Name : procNames(Mods))
      Profile.CallCounts[Name] = 1 + Rng() % 1000;
    runEditSequence(deltaOptions(), Profile, Seed);
  }
}

TEST(DeltaAnalyzer, EditSequenceMatchesUnderGreedyAndNoPromotion) {
  AnalyzerOptions Greedy = deltaOptions();
  Greedy.Promotion = PromotionMode::Greedy;
  AnalyzerOptions NoPromo = deltaOptions();
  NoPromo.Promotion = PromotionMode::None;
  for (unsigned Seed = 0; Seed < 4; ++Seed) {
    runEditSequence(Greedy, CallProfile(), Seed);
    runEditSequence(NoPromo, CallProfile(), Seed);
  }
}

TEST(DeltaAnalyzer, IdenticalReanalysisIsZeroDamage) {
  std::vector<ModuleSummary> Mods = randomProgram(3);
  DeltaAnalyzer DA;
  AnalyzerOptions Options = deltaOptions();
  std::string First = DA.analyze(Mods, Options).serialize();
  EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full);
  EXPECT_EQ(DA.deltaStats().FallbackReason, "first analysis");

  const AnalyzerStats Prime = DA.stats();
  EXPECT_GT(Prime.EligibleGlobals, 0);

  // Twice: the second identical run follows an incremental one.
  for (int Run = 0; Run < 2; ++Run) {
    std::string Again = DA.analyze(Mods, Options).serialize();
    EXPECT_EQ(First, Again);
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Incremental);
    EXPECT_EQ(DA.deltaStats().ChangedProcs, 0);
    EXPECT_EQ(DA.deltaStats().DamagedSccs, 0);
    EXPECT_EQ(DA.deltaStats().DamagedGlobals, 0);
    EXPECT_EQ(DA.deltaStats().reuseRatio(), 1.0);
    // Nothing was re-derived, so nothing was timed; the counters still
    // describe the program.
    EXPECT_EQ(DA.stats().RefSetsMs, 0);
    EXPECT_EQ(DA.stats().ModRefMs, 0);
    EXPECT_EQ(DA.stats().WebsMs, 0);
    EXPECT_EQ(counters(DA.stats()).dump(), counters(Prime).dump());
  }
}

TEST(DeltaAnalyzer, LocalEditDamagesFewSccs) {
  // A one-procedure frequency tweak in a layered program must not
  // damage the whole condensation: the point of the exercise.
  std::vector<ModuleSummary> Mods = randomProgram(5);
  DeltaAnalyzer DA;
  AnalyzerOptions Options = deltaOptions();
  DA.analyze(Mods, Options);

  for (ModuleSummary &S : Mods)
    for (ProcSummary &P : S.Procs)
      if (!P.GlobalRefs.empty()) {
        P.GlobalRefs.front().Freq += 7;
        goto edited;
      }
edited:
  const ProgramDatabase &Got = DA.analyze(Mods, Options);
  ProgramDatabase Cold = runAnalyzer(Mods, Options);
  EXPECT_EQ(Got.serialize(), Cold.serialize());
  ASSERT_EQ(DA.deltaStats().Mode, DeltaMode::Incremental);
  EXPECT_EQ(DA.deltaStats().ChangedProcs, 1);
  EXPECT_GT(DA.deltaStats().TotalSccs, 0);
  EXPECT_LT(DA.deltaStats().DamagedSccs, DA.deltaStats().TotalSccs);
}

TEST(DeltaAnalyzer, StructuralEditsReportFallbackReasons) {
  std::vector<ModuleSummary> Mods = randomProgram(7);
  AnalyzerOptions Options = deltaOptions();

  {
    DeltaAnalyzer DA;
    DA.analyze(Mods, Options);
    std::vector<ModuleSummary> Edited = Mods;
    ProcSummary NewP;
    NewP.QualName = "brand_new";
    NewP.Module = Edited[0].Module;
    Edited[0].Procs.push_back(NewP);
    const ProgramDatabase &Got = DA.analyze(Edited, Options);
    EXPECT_EQ(Got.serialize(), runAnalyzer(Edited, Options).serialize());
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full);
    EXPECT_NE(DA.deltaStats().FallbackReason.find("sequence"),
              std::string::npos);
  }
  {
    DeltaAnalyzer DA;
    DA.analyze(Mods, Options);
    AnalyzerOptions Changed = Options;
    Changed.ImprovedFreeSets = !Options.ImprovedFreeSets;
    DA.analyze(Mods, Changed);
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full);
    EXPECT_EQ(DA.deltaStats().FallbackReason, "analyzer options changed");
    // NumThreads alone must NOT force a full run.
    AnalyzerOptions Threads = Changed;
    Threads.NumThreads = 4;
    DA.analyze(Mods, Threads);
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Incremental);
  }
  {
    DeltaAnalyzer DA;
    AnalyzerOptions Remerge = Options;
    Remerge.RemergeWebs = true;
    DA.analyze(Mods, Remerge);
    DA.analyze(Mods, Remerge);
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full);
    EXPECT_NE(DA.deltaStats().FallbackReason.find("re-merging"),
              std::string::npos);
    EXPECT_EQ(DA.analyze(Mods, Remerge).serialize(),
              runAnalyzer(Mods, Remerge).serialize());
  }
}

} // namespace
