//===- delta_persist_test.cpp - Retained-run serialization tests ----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The warm-restart substrate: DeltaAnalyzer::serializeRetained /
/// restoreRetained. A restored analyzer must behave exactly like the
/// analyzer that produced the blob — same incremental damage-region
/// path on the next edit, byte-identical databases — and any corrupted,
/// truncated, or option-mismatched blob must be rejected (or fall back
/// to a full analysis), never trusted. AnalyzerSession's lazy
/// pending-restore path and its SessionsRestored/RestoresRejected
/// counters ride on top and are pinned here too.
///
//===----------------------------------------------------------------------===//

#include "core/AnalyzerSession.h"
#include "core/DeltaAnalyzer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace ipra;

namespace {

/// A small deterministic multi-module program: a cross-module call
/// chain with a cycle, statics, an address-taken procedure, and global
/// references — enough structure for the analyzer to build nontrivial
/// webs and for one-procedure edits to stay inside a damage region.
std::vector<ModuleSummary> tinyProgram() {
  std::vector<ModuleSummary> Mods(3);
  for (int M = 0; M < 3; ++M) {
    Mods[M].Module = "m";
    Mods[M].Module += std::to_string(M);
  }

  auto AddProc = [](ModuleSummary &Mod, const std::string &Name,
                    unsigned Regs) -> ProcSummary & {
    ProcSummary P;
    P.QualName = Name;
    P.Module = Mod.Module;
    P.CalleeRegsNeeded = Regs;
    Mod.Procs.push_back(std::move(P));
    return Mod.Procs.back();
  };
  auto AddGlobal = [](ModuleSummary &Mod, const std::string &Name,
                      bool IsStatic) {
    GlobalSummary G;
    G.QualName = Name;
    G.Module = Mod.Module;
    G.IsStatic = IsStatic;
    G.IsScalar = true;
    Mod.Globals.push_back(G);
  };

  AddGlobal(Mods[0], "ga", false);
  AddGlobal(Mods[1], "gb", false);
  AddGlobal(Mods[2], "m2:hidden", true);

  ProcSummary &Main = AddProc(Mods[0], "main", 4);
  Main.Calls.push_back(CallSummary{"p1", 10});
  Main.Calls.push_back(CallSummary{"p4", 3});
  Main.GlobalRefs.push_back(GlobalRefSummary{"ga", 20, true});

  ProcSummary &P1 = AddProc(Mods[0], "p1", 6);
  P1.Calls.push_back(CallSummary{"p2", 8});
  P1.GlobalRefs.push_back(GlobalRefSummary{"ga", 12, false});

  ProcSummary &P2 = AddProc(Mods[1], "p2", 5);
  P2.Calls.push_back(CallSummary{"p3", 4});
  P2.GlobalRefs.push_back(GlobalRefSummary{"gb", 30, true});

  ProcSummary &P3 = AddProc(Mods[1], "p3", 7);
  P3.Calls.push_back(CallSummary{"p2", 2}); // Cycle: one SCC {p2, p3}.
  P3.GlobalRefs.push_back(GlobalRefSummary{"gb", 6, false});

  ProcSummary &P4 = AddProc(Mods[2], "p4", 3);
  P4.GlobalRefs.push_back(GlobalRefSummary{"m2:hidden", 15, true});
  P4.AddressTakenProcs.push_back("p3");
  P4.MakesIndirectCalls = true;
  P4.IndirectCallFreq = 2;

  ProcSummary &S = AddProc(Mods[2], "m2:leaf", 2);
  S.GlobalRefs.push_back(GlobalRefSummary{"m2:hidden", 5, false});
  Mods[2].Procs[0].Calls.push_back(CallSummary{"m2:leaf", 9});
  return Mods;
}

/// An expressible edit: re-weight p2's global traffic and register
/// footprint (summary-visible, no structural change — the delta path
/// can splice it).
void reweightP2(std::vector<ModuleSummary> &Mods) {
  for (ProcSummary &P : Mods[1].Procs)
    if (P.QualName == "p2") {
      P.GlobalRefs[0].Freq = 90;
      P.CalleeRegsNeeded = 9;
    }
}

AnalyzerOptions testOptions() {
  AnalyzerOptions Options;
  Options.Promotion = PromotionMode::Webs;
  Options.SpillMotion = true;
  Options.SplitSparseWebs = true;
  Options.CallerSavePropagation = true;
  Options.RelaxWebAvail = true;
  return Options;
}

TEST(DeltaPersist, UnprimedAnalyzerHasNothingToSerialize) {
  DeltaAnalyzer DA;
  std::string Blob;
  EXPECT_FALSE(DA.serializeRetained(Blob));
}

TEST(DeltaPersist, RoundTripPreservesTheDeltaPathAndBytes) {
  std::vector<ModuleSummary> Mods = tinyProgram();
  AnalyzerOptions Options = testOptions();

  DeltaAnalyzer Producer;
  Producer.analyze(Mods, Options);
  std::string Blob;
  ASSERT_TRUE(Producer.serializeRetained(Blob));
  ASSERT_FALSE(Blob.empty());

  DeltaAnalyzer Restored;
  std::string Error;
  ASSERT_TRUE(Restored.restoreRetained(Blob, Error)) << Error;
  EXPECT_TRUE(Restored.primed());

  // Identical re-analysis: incremental, zero damage, byte-identical to
  // what the producer would serve.
  std::string Unedited = Restored.analyze(Mods, Options).serialize();
  EXPECT_EQ(Restored.deltaStats().Mode, DeltaMode::Incremental);
  EXPECT_EQ(Restored.deltaStats().ChangedProcs, 0);
  EXPECT_EQ(Unedited, Producer.analyze(Mods, Options).serialize());

  // An edit after the restore takes the damage-region path and matches
  // a cold full analysis byte for byte.
  reweightP2(Mods);
  std::string Delta = Restored.analyze(Mods, Options).serialize();
  EXPECT_EQ(Restored.deltaStats().Mode, DeltaMode::Incremental)
      << "fallback: " << Restored.deltaStats().FallbackReason;
  EXPECT_GT(Restored.deltaStats().ChangedProcs, 0);
  EXPECT_EQ(Delta, runAnalyzer(Mods, Options).serialize());
}

TEST(DeltaPersist, CorruptBlobsAreRejectedAndLeaveTheAnalyzerUsable) {
  std::vector<ModuleSummary> Mods = tinyProgram();
  AnalyzerOptions Options = testOptions();
  DeltaAnalyzer Producer;
  Producer.analyze(Mods, Options);
  std::string Blob;
  ASSERT_TRUE(Producer.serializeRetained(Blob));

  std::string FutureVersion = "ipra-retained 999\n";
  FutureVersion += Blob;
  // The previous format's header over today's run: a blob a daemon of
  // the previous release persisted is rejected on its version alone.
  const auto VersionKey = [](int V) {
    return "\"version\":" + std::to_string(V);
  };
  const std::string Current =
      VersionKey(DeltaAnalyzer::RetainedFormatVersion);
  std::string Previous = Blob;
  const size_t VersionAt = Previous.find(Current);
  ASSERT_NE(VersionAt, std::string::npos);
  Previous.replace(VersionAt, Current.size(),
                   VersionKey(DeltaAnalyzer::RetainedFormatVersion - 1));
  std::vector<std::string> Corrupt = {
      std::string(),                     // Empty.
      "garbage",                         // No header at all.
      FutureVersion,                     // A line-oriented header.
      Previous,                          // An older version.
      Blob.substr(0, Blob.size() / 3),   // Truncated early.
      Blob.substr(0, Blob.size() / 2),   // Truncated mid-blob.
      Blob.substr(0, Blob.size() - 2),   // Tail chopped.
  };
  for (size_t I = 0; I < Corrupt.size(); ++I) {
    DeltaAnalyzer DA;
    std::string Error;
    EXPECT_FALSE(DA.restoreRetained(Corrupt[I], Error))
        << "corruption " << I << " restored";
    EXPECT_FALSE(DA.primed()) << "corruption " << I;
    // The rejected analyzer still works: a cold full analysis, byte
    // identical to the reference, that primes it.
    EXPECT_EQ(DA.analyze(Mods, Options).serialize(),
              runAnalyzer(Mods, Options).serialize())
        << "corruption " << I;
    EXPECT_EQ(DA.deltaStats().Mode, DeltaMode::Full);
    EXPECT_EQ(DA.deltaStats().FallbackReason, "first analysis")
        << "corruption " << I;
    EXPECT_TRUE(DA.primed()) << "corruption " << I;
  }
}

/// Changes \p F to another value the restore's structural checks accept
/// (a node or entry id inside the graph, a global id in range).
template <typename T> void nudge(T &F) {
  if constexpr (std::is_same_v<T, bool>)
    F = !F;
  else if constexpr (std::is_integral_v<T>)
    F = F == 0 ? 1 : 0;
  else if constexpr (std::is_same_v<T, std::string>)
    F += "x";
  else if constexpr (std::is_same_v<T, NodeSet>)
    F.count(0) ? F.erase(0) : static_cast<void>(F.insert(0));
  else if constexpr (json::IsVector<T>::value)
    F.empty() ? F.push_back(0) : F.pop_back();
  else if (F.empty())
    F[0] = NodeSet{0};
  else
    F.erase(F.begin());
}

// The header's digest covers the run: any web field changed in range —
// a flipped Modifies, another priority, a node more or less — is
// rejected, never restored into a database that differs from
// runAnalyzer's.
TEST(DeltaPersist, CorruptedWebFieldsAreRejected) {
  std::vector<ModuleSummary> Mods = tinyProgram();
  AnalyzerOptions Options = testOptions();
  DeltaAnalyzer Producer;
  Producer.analyze(Mods, Options);
  std::string Blob;
  ASSERT_TRUE(Producer.serializeRetained(Blob));
  const size_t HeaderEnd = Blob.find('\n');
  ASSERT_NE(HeaderEnd, std::string::npos);
  json::Value V;
  RetainedRun Run;
  std::string Error;
  ASSERT_TRUE(json::Value::parse(Blob.substr(HeaderEnd + 1), V, Error))
      << Error;
  ASSERT_TRUE(json::decode(V, Run));
  ASSERT_FALSE(Run.Webs.empty());
  EXPECT_EQ(json::encode(Run).dump(), Blob.substr(HeaderEnd + 1));
  const std::string Reference = runAnalyzer(Mods, Options).serialize();

  size_t NumFields = 0;
  Web::fields(Run.Webs[0], [&NumFields](const char *, auto &) { ++NumFields; });
  ASSERT_EQ(NumFields, 12u);
  for (size_t I = 0; I < Run.Webs.size(); ++I)
    for (size_t Field = 0; Field < NumFields; ++Field) {
      RetainedRun Mutated = Run;
      size_t At = 0;
      std::string Key;
      Web::fields(Mutated.Webs[I], [&](const char *K, auto &F) {
        if (At++ == Field) {
          nudge(F);
          Key = K;
        }
      });
      std::string Text = json::encode(Mutated).dump();
      ASSERT_NE(Text, Blob.substr(HeaderEnd + 1)) << Key;
      DeltaAnalyzer DA;
      EXPECT_FALSE(DA.restoreRetained(Blob.substr(0, HeaderEnd + 1) + Text,
                                      Error))
          << "web " << I << " field " << Key;
      EXPECT_NE(Error.find("digest"), std::string::npos) << Error;
      EXPECT_EQ(DA.analyze(Mods, Options).serialize(), Reference)
          << "web " << I << " field " << Key;
    }
}

// A web survives the record exactly: a priority at the saturation cap
// and node sets over a universe of thousands of nodes.
TEST(DeltaPersist, WebRecordRoundTripsExactly) {
  Web W;
  W.GlobalId = 7;
  W.Priority = Web::PriorityCap;
  W.AssignedReg = 12;
  W.Modifies = true;
  W.IsSplit = true;
  W.Considered = false;
  W.DiscardReason = "too sparse: \"quoted\"\n";
  W.Nodes = NodeSet::withUniverse(5000);
  for (int N : {0, 63, 64, 4095, 4096, 4999})
    W.Nodes.insert(N);
  W.EntryNodes = {4999, 0};
  W.WrapEdges[4096] = NodeSet{1, 4097};
  W.WrapEdges[3] = NodeSet{};
  W.WrapIndirect = NodeSet{4098};

  const std::string Text = json::encode(W).dump();
  EXPECT_NE(Text.find("\"priority\":" + std::to_string(Web::PriorityCap)),
            std::string::npos)
      << Text;
  json::Value V;
  std::string Error;
  ASSERT_TRUE(json::Value::parse(Text, V, Error)) << Error;
  Web Back;
  ASSERT_TRUE(json::decode(V, Back));
  EXPECT_EQ(Back.Priority, Web::PriorityCap);
  EXPECT_EQ(Back.GlobalId, 7);
  EXPECT_EQ(Back.AssignedReg, 12);
  EXPECT_TRUE(Back.Modifies);
  EXPECT_TRUE(Back.IsSplit);
  EXPECT_FALSE(Back.Considered);
  EXPECT_FALSE(Back.IsRemerged);
  EXPECT_EQ(Back.DiscardReason, W.DiscardReason);
  EXPECT_EQ(Back.Nodes, W.Nodes);
  EXPECT_EQ(Back.Nodes.size(), 6u);
  EXPECT_EQ(Back.EntryNodes, W.EntryNodes);
  EXPECT_EQ(Back.WrapEdges, W.WrapEdges);
  EXPECT_EQ(Back.WrapIndirect, W.WrapIndirect);
  EXPECT_EQ(json::encode(Back).dump(), Text);
}

TEST(DeltaPersist, OptionMismatchFallsBackToFullAnalysis) {
  std::vector<ModuleSummary> Mods = tinyProgram();
  AnalyzerOptions Produced = testOptions();
  DeltaAnalyzer Producer;
  Producer.analyze(Mods, Produced);
  std::string Blob;
  ASSERT_TRUE(Producer.serializeRetained(Blob));

  // The blob restores fine, but the next analyze() runs under different
  // output-affecting options: the retained run must not be spliced.
  AnalyzerOptions Changed = testOptions();
  Changed.CallerSavePropagation = false;
  DeltaAnalyzer Restored;
  std::string Error;
  ASSERT_TRUE(Restored.restoreRetained(Blob, Error)) << Error;
  std::string Got = Restored.analyze(Mods, Changed).serialize();
  EXPECT_EQ(Restored.deltaStats().Mode, DeltaMode::Full);
  EXPECT_EQ(Restored.deltaStats().FallbackReason,
            "analyzer options changed");
  EXPECT_EQ(Got, runAnalyzer(Mods, Changed).serialize());
}

TEST(DeltaPersist, SessionPendingRestoreCountsRestores) {
  std::vector<ModuleSummary> Mods = tinyProgram();
  AnalyzerOptions Options = testOptions();
  DeltaAnalyzer Producer;
  Producer.analyze(Mods, Options);
  std::string Blob;
  ASSERT_TRUE(Producer.serializeRetained(Blob));

  AnalyzerSession Session;
  Session.setPendingRestore(Blob);
  EXPECT_FALSE(Session.primed()) << "restore is lazy, not eager";
  reweightP2(Mods);
  AnalyzerSession::Outcome Out =
      Session.analyze(Mods, Options, CallProfile());
  EXPECT_EQ(Out.Delta.Mode, DeltaMode::Incremental)
      << "fallback: " << Out.Delta.FallbackReason;
  EXPECT_EQ(Out.DB.serialize(), runAnalyzer(Mods, Options).serialize());
  AnalyzerSessionCounters C = Session.counters();
  EXPECT_EQ(C.SessionsRestored, 1ull);
  EXPECT_EQ(C.RestoresRejected, 0ull);
  EXPECT_EQ(C.DeltaHits, 1ull);
}

TEST(DeltaPersist, SessionPendingRestoreCountsRejects) {
  std::vector<ModuleSummary> Mods = tinyProgram();
  AnalyzerOptions Options = testOptions();

  AnalyzerSession Session;
  Session.setPendingRestore("definitely not a retained run");
  AnalyzerSession::Outcome Out =
      Session.analyze(Mods, Options, CallProfile());
  EXPECT_EQ(Out.Delta.Mode, DeltaMode::Full);
  EXPECT_EQ(Out.DB.serialize(), runAnalyzer(Mods, Options).serialize());
  AnalyzerSessionCounters C = Session.counters();
  EXPECT_EQ(C.SessionsRestored, 0ull);
  EXPECT_EQ(C.RestoresRejected, 1ull);
  EXPECT_EQ(C.FullRuns, 1ull);
}

} // namespace
