//===- webs_split_test.cpp - §7.6.1 web splitting tests -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "core/WebColor.h"
#include "core/Webs.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;

namespace {

/// A long chain main -> c0 -> ... -> c(N-1) with g referenced hotly at
/// both ends: the classic "isolated references at two ends of a long
/// call chain" (§7.6.1).
std::vector<ModuleSummary> dumbbellGraph(int ChainLength) {
  GraphBuilder B;
  B.proc("main").global("g");
  B.ref("main", "g", 50, /*Stores=*/true);
  std::string Prev = "main";
  for (int I = 0; I < ChainLength; ++I) {
    std::string Name = "c" + std::to_string(I);
    B.proc(Name);
    B.call(Prev, Name, 2);
    Prev = Name;
  }
  B.ref(Prev, "g", 50, /*Stores=*/true);
  return B.build();
}

AnalyzerOptions splitOptions() {
  AnalyzerOptions Options;
  Options.SplitSparseWebs = true;
  return Options;
}

TEST(WebSplitTest, SparseWebSplitsIntoTwoSubWebs) {
  CallGraph CG(dumbbellGraph(10));
  RefSets RS(CG);

  // Without splitting: one web spanning the chain, discarded as sparse.
  auto Plain = buildWebs(CG, RS);
  ASSERT_EQ(Plain.size(), 1u);
  EXPECT_FALSE(Plain[0].Considered);
  EXPECT_EQ(Plain[0].DiscardReason, "too sparse");

  // With splitting: two tight sub-webs replace it.
  auto Split = buildWebs(CG, RS, splitOptions());
  ASSERT_EQ(Split.size(), 2u);
  for (const Web &W : Split) {
    EXPECT_TRUE(W.IsSplit);
    EXPECT_TRUE(W.Considered) << W.DiscardReason;
    EXPECT_EQ(W.Nodes.size(), 1u);
  }
  auto Problems = checkWebInvariants(CG, RS, Split);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebSplitTest, WrapEdgesCoverEscapingPaths) {
  CallGraph CG(dumbbellGraph(10));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, splitOptions());
  ASSERT_EQ(Webs.size(), 2u);

  int Main = CG.findNode("main");
  int Bottom = CG.findNode("c9");
  const Web *Top = nullptr, *Bot = nullptr;
  for (const Web &W : Webs) {
    if (W.Nodes.count(Main))
      Top = &W;
    if (W.Nodes.count(Bottom))
      Bot = &W;
  }
  ASSERT_TRUE(Top && Bot);
  // The top sub-web's call into the chain reaches the bottom region:
  // wrapped. The bottom sub-web calls nothing: no wraps.
  ASSERT_EQ(Top->WrapEdges.count(Main), 1u);
  EXPECT_TRUE(Top->WrapEdges.at(Main).count(CG.findNode("c0")));
  EXPECT_TRUE(Bot->WrapEdges.empty());
}

TEST(WebSplitTest, SubWebsMayShareARegister) {
  CallGraph CG(dumbbellGraph(10));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, splitOptions());
  auto Stats = colorWebsKRegisters(Webs, CG, pr32::maskOf(13));
  // Disjoint sub-webs of the same variable do not interfere; one
  // register colors both (memory is the hand-off).
  EXPECT_EQ(Stats.Colored, 2);
  auto Problems = checkColoring(Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebSplitTest, AdjacentReferencesStayTogether) {
  // References in adjacent procedures form one component: no split.
  GraphBuilder B;
  B.proc("main").proc("a").proc("b").global("g");
  B.call("main", "a").call("a", "b");
  B.ref("a", "g", 50).ref("b", "g", 50);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, splitOptions());
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_FALSE(Webs[0].IsSplit);
}

TEST(WebSplitTest, UnprofitableSubWebDiscarded) {
  // The bottom region is cold (frequency 1): its sub-web cannot pay for
  // the entry overhead and is discarded; the hot top still splits off.
  GraphBuilder B;
  B.proc("main").global("g");
  B.ref("main", "g", 50, true);
  std::string Prev = "main";
  for (int I = 0; I < 10; ++I) {
    std::string Name = "c" + std::to_string(I);
    B.proc(Name);
    B.call(Prev, Name, 1);
    Prev = Name;
  }
  B.ref(Prev, "g", 1, true); // Cold.
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, splitOptions());
  ASSERT_EQ(Webs.size(), 2u);
  int Considered = 0;
  for (const Web &W : Webs)
    Considered += W.Considered;
  EXPECT_EQ(Considered, 1);
}

TEST(WebSplitTest, MixedPredecessorClosureAppliesToSubWebs) {
  // The bottom region has two callers inside the chain: the sub-web
  // absorbs enough nodes that no internal node keeps external preds.
  GraphBuilder B;
  B.proc("main").proc("mid1").proc("mid2").proc("hot").proc("deep");
  B.global("g");
  B.ref("main", "g", 50, true);
  B.call("main", "mid1", 2).call("main", "mid2", 2);
  B.call("mid1", "hot", 5).call("mid2", "hot", 5);
  B.call("hot", "deep", 2);
  // Give hot an internal companion so 'hot' has internal+external preds
  // after seeding: reference g in hot and deep (adjacent -> same
  // component), with mid1/mid2 outside.
  B.ref("hot", "g", 40, true);
  B.ref("deep", "g", 40, true);
  // Pad the graph so the parent web is sparse enough to be discarded.
  std::string Prev = "deep";
  for (int I = 0; I < 12; ++I) {
    std::string Name = "pad" + std::to_string(I);
    B.proc(Name);
    B.call(Prev, Name, 1);
    Prev = Name;
  }
  B.ref(Prev, "g", 30, true);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, splitOptions());
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
  // Every split sub-web's non-entry nodes have all preds internal.
  for (const Web &W : Webs) {
    if (!W.IsSplit)
      continue;
    std::set<int> Entries(W.EntryNodes.begin(), W.EntryNodes.end());
    for (int N : W.Nodes) {
      if (Entries.count(N))
        continue;
      for (int P : CG.node(N).Preds)
        EXPECT_TRUE(W.Nodes.count(P))
            << CG.node(N).QualName << " has external pred "
            << CG.node(P).QualName;
    }
  }
}

} // namespace
