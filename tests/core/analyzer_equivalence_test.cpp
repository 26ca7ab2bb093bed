//===- analyzer_equivalence_test.cpp - Optimized vs seed analyzer ---------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Property tests pinning the scaled analyzer (SCC-condensed P_REF/C_REF,
/// bitset webs, parallel per-global discovery) to the retained seed
/// implementations in core/ReferenceAnalyzer.h: on randomized call
/// graphs both must produce the identical web set, entry nodes, register
/// assignments and cluster partition, and the program database must be
/// byte-identical at every thread count. Runs under -DIPRA_SANITIZE=thread
/// in the verify flow to catch races in the parallel discovery.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/ReferenceAnalyzer.h"

#include "RandomProgram.h"

#include <gtest/gtest.h>

using namespace ipra;

namespace {

/// A randomized program (tests/testutil/RandomProgram.h) of two or
/// three modules of 10..17 procedures, 8..15 globals and up to two
/// indirect callers.
std::vector<ModuleSummary> randomProgram(unsigned SeedValue) {
  return test::randomProgram({.Modules = {2, 2},
                               .ProcsPerModule = {10, 8},
                               .Globals = {8, 8},
                               .IndirectCallers = {0, 3}},
                             SeedValue);
}

/// The option sets the web comparison runs under: the default path plus
/// every §7.6.1/§7.2 extension the discovery can take.
std::vector<AnalyzerOptions> webOptionMatrix() {
  AnalyzerOptions Split;
  Split.SplitSparseWebs = true;
  AnalyzerOptions Remerge;
  Remerge.RemergeWebs = true;
  AnalyzerOptions Open;
  Open.AssumeClosedWorld = false;
  Open.SplitSparseWebs = true;
  Open.RemergeWebs = true;
  return {AnalyzerOptions{}, Split, Remerge, Open};
}

void expectWebsEqual(const std::vector<Web> &Got,
                     const std::vector<Web> &Want, unsigned SeedValue) {
  ASSERT_EQ(Got.size(), Want.size()) << "seed " << SeedValue;
  for (size_t I = 0; I < Got.size(); ++I) {
    SCOPED_TRACE("seed " + std::to_string(SeedValue) + " web " +
                 std::to_string(I));
    const Web &A = Got[I], &B = Want[I];
    EXPECT_EQ(A.Id, B.Id);
    EXPECT_EQ(A.GlobalId, B.GlobalId);
    EXPECT_TRUE(A.Nodes == B.Nodes);
    EXPECT_EQ(A.EntryNodes, B.EntryNodes);
    EXPECT_EQ(A.Modifies, B.Modifies);
    EXPECT_EQ(A.Priority, B.Priority);
    EXPECT_EQ(A.AssignedReg, B.AssignedReg);
    EXPECT_EQ(A.Considered, B.Considered);
    EXPECT_EQ(A.DiscardReason, B.DiscardReason);
    EXPECT_EQ(A.IsSplit, B.IsSplit);
    EXPECT_EQ(A.IsRemerged, B.IsRemerged);
    ASSERT_EQ(A.WrapEdges.size(), B.WrapEdges.size());
    for (const auto &[Node, Targets] : A.WrapEdges) {
      auto It = B.WrapEdges.find(Node);
      ASSERT_NE(It, B.WrapEdges.end());
      EXPECT_TRUE(Targets == It->second);
    }
    EXPECT_TRUE(A.WrapIndirect == B.WrapIndirect);
  }
}

constexpr unsigned NumSeeds = 40;

TEST(AnalyzerEquivalence, PrefCrefMatchFixpoint) {
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
    CallGraph CG(randomProgram(Seed));
    RefSets RS(CG);
    reference::FixpointRefSets Ref(CG, RS);
    for (int N = 0; N < CG.size(); ++N) {
      EXPECT_TRUE(RS.pref(N) == Ref.pref(N))
          << "P_REF mismatch, seed " << Seed << " node " << N;
      EXPECT_TRUE(RS.cref(N) == Ref.cref(N))
          << "C_REF mismatch, seed " << Seed << " node " << N;
    }
  }
}

TEST(AnalyzerEquivalence, WebsMatchSetBasedReference) {
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
    CallGraph CG(randomProgram(Seed));
    RefSets RS(CG);
    for (const AnalyzerOptions &Options : webOptionMatrix()) {
      auto Got = buildWebs(CG, RS, Options);
      auto Want = reference::buildWebs(CG, RS, Options);
      expectWebsEqual(Got, Want, Seed);
      EXPECT_TRUE(checkWebInvariants(CG, RS, Got).empty());
    }
  }
}

TEST(AnalyzerEquivalence, WebsIdenticalAtAnyThreadCount) {
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
    CallGraph CG(randomProgram(Seed));
    RefSets RS(CG);
    for (AnalyzerOptions Options : webOptionMatrix()) {
      Options.NumThreads = 1;
      auto Serial = buildWebs(CG, RS, Options);
      for (int Threads : {3, 8}) {
        Options.NumThreads = Threads;
        expectWebsEqual(buildWebs(CG, RS, Options), Serial, Seed);
      }
    }
  }
}

TEST(AnalyzerEquivalence, RegisterAssignmentsMatchOnReferenceWebs) {
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
    CallGraph CG(randomProgram(Seed));
    RefSets RS(CG);
    auto Got = buildWebs(CG, RS);
    auto Want = reference::buildWebs(CG, RS);
    colorWebsKRegisters(Got, CG, pr32::defaultWebColoringPool());
    colorWebsKRegisters(Want, CG, pr32::defaultWebColoringPool());
    expectWebsEqual(Got, Want, Seed);

    auto GotGreedy = buildWebs(CG, RS);
    auto WantGreedy = reference::buildWebs(CG, RS);
    colorWebsGreedy(GotGreedy, CG);
    colorWebsGreedy(WantGreedy, CG);
    expectWebsEqual(GotGreedy, WantGreedy, Seed);
  }
}

TEST(AnalyzerEquivalence, ClustersMatchSetBasedReference) {
  for (unsigned Seed = 0; Seed < NumSeeds; ++Seed) {
    CallGraph CG(randomProgram(Seed));
    auto Got = identifyClusters(CG);
    auto Want = reference::identifyClusters(CG);
    ASSERT_EQ(Got.size(), Want.size()) << "seed " << Seed;
    for (size_t I = 0; I < Got.size(); ++I) {
      EXPECT_EQ(Got[I].Root, Want[I].Root) << "seed " << Seed;
      EXPECT_EQ(Got[I].Members, Want[I].Members) << "seed " << Seed;
    }
    EXPECT_TRUE(checkClusterInvariants(CG, Got).empty());
  }
}

TEST(AnalyzerEquivalence, DatabaseByteIdenticalAcrossThreadCounts) {
  for (unsigned Seed = 0; Seed < 8; ++Seed) {
    auto Summaries = randomProgram(Seed);
    AnalyzerOptions Options;
    Options.SplitSparseWebs = true;
    Options.RemergeWebs = true;
    Options.CallerSavePropagation = true;

    Options.NumThreads = 1;
    AnalyzerStats SerialStats;
    std::string Serial =
        runAnalyzer(Summaries, Options, {}, &SerialStats).serialize();
    for (int Threads : {2, 8}) {
      Options.NumThreads = Threads;
      AnalyzerStats Stats;
      EXPECT_EQ(runAnalyzer(Summaries, Options, {}, &Stats).serialize(),
                Serial)
          << "database differs at " << Threads << " threads, seed "
          << Seed;
      EXPECT_EQ(Stats.TotalWebs, SerialStats.TotalWebs);
      EXPECT_EQ(Stats.ColoredWebs, SerialStats.ColoredWebs);
    }
  }
}

} // namespace
