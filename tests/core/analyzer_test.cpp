//===- analyzer_test.cpp - Program analyzer and database tests ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "analysis/GPGCompose.h"
#include "core/Analyzer.h"
#include "core/AnalyzerInternal.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;
using ipra::test::figure3Graph;

namespace {

TEST(AnalyzerTest, Figure3EndToEnd) {
  AnalyzerOptions Options;
  Options.WebPool = pr32::maskOf(13) | pr32::maskOf(14);
  AnalyzerStats Stats;
  ProgramDatabase DB = runAnalyzer(figure3Graph(), Options, {}, &Stats);

  EXPECT_EQ(Stats.EligibleGlobals, 3);
  EXPECT_EQ(Stats.TotalWebs, 4);
  EXPECT_EQ(Stats.ColoredWebs, 4);

  // B is a web entry for g1 (the paper's worked example in §4.1.4).
  ProcDirectives DirB = DB.lookup("B");
  bool FoundG1Entry = false;
  for (const PromotedGlobal &P : DirB.Promoted)
    if (P.QualName == "g1")
      FoundG1Entry = P.IsEntry;
  EXPECT_TRUE(FoundG1Entry);

  // D and E carry g1 but are not entries.
  for (const char *Name : {"D", "E"}) {
    ProcDirectives Dir = DB.lookup(Name);
    bool Found = false;
    for (const PromotedGlobal &P : Dir.Promoted)
      if (P.QualName == "g1") {
        Found = true;
        EXPECT_FALSE(P.IsEntry) << Name;
      }
    EXPECT_TRUE(Found) << Name;
  }

  // H belongs to no web: no promotions there.
  EXPECT_TRUE(DB.lookup("H").Promoted.empty());
}

TEST(AnalyzerTest, ResidueFreeSummariesAreNotCopiedInGPGMode) {
  // Hand-built summaries carry no GPG residue, so composition does not
  // apply: the caller's set comes back as it is and no counter moves.
  SummarySet Summaries =
      std::make_shared<const std::vector<ModuleSummary>>(figure3Graph());
  ASSERT_FALSE(gpgCompositionApplies(*Summaries));
  AnalyzerOptions Options;
  ASSERT_EQ(Options.PointsTo, PointsToMode::GPG);
  GPGComposeStats Stats;
  Stats.ComposedProcs = 1;
  Stats.Contexts = 2;
  Stats.RefutedBeyondAndersen = 3;
  Stats.ResolvedBeyondAndersen = 4;
  SummarySet Out = analyzer_detail::strengthened(Summaries, Options, Stats);
  EXPECT_EQ(Out.get(), Summaries.get());
  EXPECT_EQ(Stats.ComposedProcs, 1);
  EXPECT_EQ(Stats.Contexts, 2);
  EXPECT_EQ(Stats.RefutedBeyondAndersen, 3);
  EXPECT_EQ(Stats.ResolvedBeyondAndersen, 4);
}

TEST(AnalyzerTest, PromotionNoneLeavesNoPromotions) {
  AnalyzerOptions Options;
  Options.Promotion = PromotionMode::None;
  ProgramDatabase DB = runAnalyzer(figure3Graph(), Options);
  for (const auto &[Name, Dir] : DB.procs())
    EXPECT_TRUE(Dir.Promoted.empty()) << Name;
}

TEST(AnalyzerTest, SpillMotionOffKeepsStandardSets) {
  AnalyzerOptions Options;
  Options.SpillMotion = false;
  Options.Promotion = PromotionMode::None;
  ProgramDatabase DB = runAnalyzer(figure3Graph(), Options);
  for (const auto &[Name, Dir] : DB.procs()) {
    EXPECT_EQ(Dir.Free, 0u) << Name;
    EXPECT_EQ(Dir.MSpill, 0u) << Name;
    EXPECT_FALSE(Dir.IsClusterRoot) << Name;
  }
}

TEST(AnalyzerTest, DatabaseRoundTrip) {
  AnalyzerOptions Options;
  AnalyzerStats Stats;
  ProgramDatabase DB = runAnalyzer(figure3Graph(), Options, {}, &Stats);

  std::string Text = DB.serialize();
  ProgramDatabase Parsed;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Text, Parsed, Error)) << Error;
  ASSERT_EQ(Parsed.procs().size(), DB.procs().size());
  for (const auto &[Name, Dir] : DB.procs()) {
    ProcDirectives P = Parsed.lookup(Name);
    EXPECT_EQ(P.Free, Dir.Free) << Name;
    EXPECT_EQ(P.Caller, Dir.Caller) << Name;
    EXPECT_EQ(P.Callee, Dir.Callee) << Name;
    EXPECT_EQ(P.MSpill, Dir.MSpill) << Name;
    EXPECT_EQ(P.IsClusterRoot, Dir.IsClusterRoot) << Name;
    ASSERT_EQ(P.Promoted.size(), Dir.Promoted.size()) << Name;
    for (size_t I = 0; I < P.Promoted.size(); ++I) {
      EXPECT_EQ(P.Promoted[I].QualName, Dir.Promoted[I].QualName);
      EXPECT_EQ(P.Promoted[I].Reg, Dir.Promoted[I].Reg);
      EXPECT_EQ(P.Promoted[I].IsEntry, Dir.Promoted[I].IsEntry);
      EXPECT_EQ(P.Promoted[I].WebModifies, Dir.Promoted[I].WebModifies);
    }
  }
}

TEST(AnalyzerTest, DatabaseLookupMissingGivesStandard) {
  ProgramDatabase DB;
  ProcDirectives Dir = DB.lookup("nonexistent");
  EXPECT_EQ(Dir.Caller, pr32::callerSavedMask());
  EXPECT_EQ(Dir.Callee, pr32::calleeSavedMask());
  EXPECT_EQ(Dir.Free, 0u);
  EXPECT_TRUE(Dir.Promoted.empty());
}

TEST(AnalyzerTest, DeserializeRejectsGarbage) {
  ProgramDatabase Out;
  std::string Error;
  EXPECT_FALSE(ProgramDatabase::deserialize("bogus line\n", Out, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(
      ProgramDatabase::deserialize("promote g reg=3\n", Out, Error));
}

TEST(AnalyzerTest, DeserializeRejectsMalformedFieldValues) {
  const std::string Header =
      "ipra-db-format " + std::to_string(DatabaseFormatVersion) +
      " config=-\n";
  const std::string Proc = "proc f free=00000000 caller=00000000 "
                           "callee=00000000 mspill=00000000 root=0 "
                           "budget=00000000 clobber=00000000 "
                           "indresolved=0\n";
  ProgramDatabase Out;
  std::string Error;
  ASSERT_TRUE(ProgramDatabase::deserialize(Header + Proc + "end\n", Out,
                                           Error))
      << Error;

  // Each present value must parse in full and in range; the error names
  // the line and the field.
  struct Case {
    std::string Text, Expect;
  };
  auto WithProc = [&](const std::string &From, const std::string &To) {
    std::string P = Proc;
    P.replace(P.find(From), From.size(), To);
    return Header + P + "end\n";
  };
  const Case Cases[] = {
      {WithProc("free=00000000", "free=zz"), "line 2: malformed free="},
      {WithProc("root=0", "root=x"), "line 2: malformed root="},
      {WithProc("root=0", "root=2"), "line 2: malformed root="},
      {WithProc("free=00000000", "free=1ffffffff"), "line 2: malformed free="},
      {WithProc("budget=00000000", "budget="), "line 2: malformed budget="},
      {WithProc("caller=00000000", "caller=-1"), "line 2: malformed caller="},
      {Header + Proc + "promote m.g reg=zz entry=1 modifies=1 wrapind=0\n" +
           "end\n",
       "line 3: malformed reg="},
      {Header + "modref m.g verdict=9 exact=1 uninit=0\n",
       "line 2: malformed verdict="},
      {Header + "modref m.g verdict=-1 exact=1 uninit=0\n",
       "line 2: malformed verdict=-1"},
      {Header + "modref m.g verdict=1 exact=2 uninit=0\n",
       "line 2: malformed exact=2"},
      {Header + Proc, "line 2: proc record 'f' has no end"},
      {WithProc("root=0", "root=0 root=0"), "line 2: duplicate root= field"},
      {WithProc("root=0 ", ""), "line 2: missing root= field"},
      {WithProc("root=0", "root=0 bogus=1"), "line 2: unknown field 'bogus=1'"},
      {WithProc("free=00000000", "free=0"), "line 2: malformed free=0"},
      {Header + Proc + "promote m.g reg=32 entry=1 modifies=1 wrapind=0\n" +
           "end\n",
       "line 3: malformed reg=32"},
      {Header + Proc + "wrap h\nend\n", "line 3: 'wrap' outside promote"},
      {Header + "end\n", "line 2: stray end"},
      {Header + Proc + "end\n" + Proc + "end\n",
       "line 4: duplicate proc record 'f'"},
  };
  for (const Case &C : Cases) {
    Error.clear();
    EXPECT_FALSE(ProgramDatabase::deserialize(C.Text, Out, Error)) << C.Text;
    EXPECT_NE(Error.find(C.Expect), std::string::npos)
        << C.Text << " gave: " << Error;
  }
}

TEST(AnalyzerTest, ClusterStatsReported) {
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("T");
  B.call("main", "R", 1);
  B.call("R", "S", 100).call("R", "T", 100);
  AnalyzerOptions Options;
  AnalyzerStats Stats;
  runAnalyzer(B.build(), Options, {}, &Stats);
  EXPECT_GE(Stats.NumClusters, 1);
  EXPECT_GE(Stats.MaxClusterSize, 3);
  EXPECT_GT(Stats.avgClusterSize(), 1.0);
}

TEST(AnalyzerTest, ProfileChangesClusterDecisions) {
  // Heuristically R looks call-intensive, but the profile reveals the
  // opposite: the analyzer must follow the measured counts.
  GraphBuilder B;
  B.proc("main").proc("R").proc("S");
  B.call("main", "R", 1);
  B.call("R", "S", 100); // Heuristic: S called 100x per R call.
  CallProfile Profile;
  Profile.CallCounts = {{"main", 1}, {"R", 1000}, {"S", 1}};
  Profile.EdgeCounts = {{{"main", "R"}, 1000}, {{"R", "S"}, 1}};

  AnalyzerOptions Options;
  ProgramDatabase Heuristic = runAnalyzer(B.build(), Options);
  ProgramDatabase Profiled = runAnalyzer(B.build(), Options, Profile);
  EXPECT_TRUE(Heuristic.lookup("R").IsClusterRoot);
  EXPECT_FALSE(Profiled.lookup("R").IsClusterRoot);
}

TEST(AnalyzerTest, DatabaseDiffFindsChangedAddedAndRemovedProcs) {
  ProgramDatabase Old, New;
  ProcDirectives Stable;
  Stable.Free = pr32::maskOf(9);
  Old.insert("same", Stable);
  New.insert("same", Stable);

  ProcDirectives Was, Is;
  Was.MSpill = pr32::maskOf(10);
  Is.MSpill = pr32::maskOf(11);
  Old.insert("changed", Was);
  New.insert("changed", Is);

  Old.insert("removed", ProcDirectives());
  New.insert("added", ProcDirectives());

  auto Changed = ProgramDatabase::diff(Old, New);
  ASSERT_EQ(Changed.size(), 3u);
  EXPECT_EQ(Changed[0], "added");
  EXPECT_EQ(Changed[1], "changed");
  EXPECT_EQ(Changed[2], "removed");
}

TEST(AnalyzerTest, DatabaseDiffSeesPromotionChanges) {
  ProgramDatabase Old, New;
  ProcDirectives Was, Is;
  PromotedGlobal Entry;
  Entry.QualName = "g";
  Entry.Reg = 13;
  Entry.IsEntry = true;
  Entry.WebModifies = true;
  Was.Promoted.push_back(Entry);
  Entry.WebModifies = false;
  Is.Promoted.push_back(Entry);
  Old.insert("p", Was);
  New.insert("p", Is);
  auto Changed = ProgramDatabase::diff(Old, New);
  ASSERT_EQ(Changed.size(), 1u);
  EXPECT_EQ(Changed[0], "p");

  // Identical promotion lists: no difference.
  New.insert("p", Was);
  EXPECT_TRUE(ProgramDatabase::diff(Old, New).empty());
}

TEST(AnalyzerTest, DatabaseDiffRoundTripsThroughSerialization) {
  // Serialized-then-parsed databases must diff as empty against their
  // in-memory originals (otherwise smart recompilation would always
  // fire after a round trip through the filesystem).
  AnalyzerOptions Options;
  ProgramDatabase DB = runAnalyzer(figure3Graph(), Options);
  ProgramDatabase Reloaded;
  std::string Error;
  ASSERT_TRUE(
      ProgramDatabase::deserialize(DB.serialize(), Reloaded, Error))
      << Error;
  EXPECT_TRUE(ProgramDatabase::diff(DB, Reloaded).empty());
}

TEST(AnalyzerTest, WebRegistersReservedInClusterSets) {
  // Promoted registers never leak into FREE/MSPILL at covered nodes.
  AnalyzerOptions Options;
  ProgramDatabase DB = runAnalyzer(figure3Graph(), Options);
  for (const auto &[Name, Dir] : DB.procs()) {
    RegMask Promoted = Dir.promotedMask();
    EXPECT_EQ(Dir.Free & Promoted, 0u) << Name;
    EXPECT_EQ(Dir.MSpill & Promoted, 0u) << Name;
  }
}

} // namespace
