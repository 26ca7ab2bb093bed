//===- webs_remerge_test.cpp - §7.6.1 web re-merging tests ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "core/WebColor.h"
#include "core/Webs.h"
#include "target/Registers.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;

namespace {

AnalyzerOptions remergeOptions() {
  AnalyzerOptions Options;
  Options.RemergeWebs = true;
  return Options;
}

/// main calls a and b frequently; each references g in a hot loop.
/// Separate webs pay a load/store per call of a and of b; the merged
/// web shares one entry at main and pays once per program run.
GraphBuilder forkGraph() {
  GraphBuilder B;
  B.proc("main").proc("a").proc("b").global("g");
  B.call("main", "a", 20).call("main", "b", 20);
  B.ref("a", "g", 5, /*Stores=*/true);
  B.ref("b", "g", 5, /*Stores=*/true);
  return B;
}

TEST(WebRemergeTest, SharesEntryAtCommonDominator) {
  CallGraph CG(forkGraph().build());
  RefSets RS(CG);

  // Without the extension: two independent webs.
  auto Plain = buildWebs(CG, RS);
  ASSERT_EQ(Plain.size(), 2u);
  for (const Web &W : Plain) {
    EXPECT_TRUE(W.Considered);
    EXPECT_EQ(W.Nodes.size(), 1u);
  }

  // With it: one merged web whose single entry is the dominator.
  auto Merged = buildWebs(CG, RS, remergeOptions());
  ASSERT_EQ(Merged.size(), 1u);
  const Web &M = Merged.back();
  EXPECT_TRUE(M.Considered);
  EXPECT_EQ(M.Nodes.size(), 3u);
  ASSERT_EQ(M.EntryNodes.size(), 1u);
  EXPECT_EQ(M.EntryNodes[0], CG.findNode("main"));
  EXPECT_TRUE(M.Modifies);
  auto Problems = checkWebInvariants(CG, RS, Merged);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebRemergeTest, MergedPriorityBeatsThePair) {
  CallGraph CG(forkGraph().build());
  RefSets RS(CG);
  auto Plain = buildWebs(CG, RS);
  auto Merged = buildWebs(CG, RS, remergeOptions());
  long long PairSum = 0;
  for (const Web &W : Plain)
    PairSum += W.Priority;
  EXPECT_GT(Merged.back().Priority, PairSum);
}

TEST(WebRemergeTest, ExtraInterferenceIsThePrice) {
  // A second variable h lives only in main. Before re-merging, g's webs
  // avoid main entirely, so with a single promotion register all three
  // webs color. After re-merging, g's web covers main and collides with
  // h's web: one register can no longer serve both.
  auto B = forkGraph();
  B.global("h").ref("main", "h", 3);
  CallGraph CG(B.build());
  RefSets RS(CG);
  unsigned OneReg = pr32::maskOf(13);

  auto Plain = buildWebs(CG, RS);
  auto PlainStats = colorWebsKRegisters(Plain, CG, OneReg);
  EXPECT_EQ(PlainStats.Colored, 3);

  auto Merged = buildWebs(CG, RS, remergeOptions());
  ASSERT_EQ(Merged.size(), 2u);
  auto MergedStats = colorWebsKRegisters(Merged, CG, OneReg);
  EXPECT_EQ(MergedStats.Colored, 1);
  auto Problems = checkColoring(Merged);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebRemergeTest, DifferentVariablesNeverMerge) {
  GraphBuilder B;
  B.proc("main").proc("a").proc("b").global("g").global("h");
  B.call("main", "a", 20).call("main", "b", 20);
  B.ref("a", "g", 5, true);
  B.ref("b", "h", 5, true);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, remergeOptions());
  ASSERT_EQ(Webs.size(), 2u);
  for (const Web &W : Webs) {
    EXPECT_TRUE(W.Considered);
    EXPECT_EQ(W.Nodes.size(), 1u);
  }
}

TEST(WebRemergeTest, ThreeWayCascadeMergesIntoOneWeb) {
  // Three subtrees each referencing g: pairwise merges cascade until a
  // single web rooted at main remains.
  GraphBuilder B;
  B.proc("main").global("g");
  for (const char *Name : {"a", "b", "c"}) {
    B.proc(Name);
    B.call("main", Name, 15);
    B.ref(Name, "g", 6, /*Stores=*/true);
  }
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, remergeOptions());
  int ConsideredCount = 0;
  const Web *Live = nullptr;
  for (const Web &W : Webs)
    if (W.Considered) {
      ++ConsideredCount;
      Live = &W;
    }
  ASSERT_EQ(ConsideredCount, 1);
  EXPECT_EQ(Live->Nodes.size(), 4u);
  ASSERT_EQ(Live->EntryNodes.size(), 1u);
  EXPECT_EQ(Live->EntryNodes[0], CG.findNode("main"));
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebRemergeTest, ConnectorChainIsAbsorbed) {
  // The webs sit at the ends of two call chains: the merged region must
  // contain the connector nodes (which never reference g) so the value
  // stays in its register on the way down.
  GraphBuilder B;
  B.proc("main").proc("x1").proc("x2").proc("y1").proc("leafx").proc(
      "leafy");
  B.global("g");
  B.call("main", "x1", 10).call("x1", "x2", 3).call("x2", "leafx", 3);
  B.call("main", "y1", 10).call("y1", "leafy", 3);
  B.ref("leafx", "g", 8, true);
  B.ref("leafy", "g", 8, true);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, remergeOptions());
  const Web *Live = nullptr;
  for (const Web &W : Webs)
    if (W.Considered)
      Live = &W;
  ASSERT_TRUE(Live);
  EXPECT_EQ(Live->Nodes.size(), 6u);
  EXPECT_TRUE(Live->Nodes.count(CG.findNode("x1")));
  EXPECT_TRUE(Live->Nodes.count(CG.findNode("x2")));
  EXPECT_TRUE(Live->Nodes.count(CG.findNode("y1")));
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebRemergeTest, DownstreamWebOfSameVariableIsAbsorbed) {
  // A third, cold reference region hangs below the merged region. The
  // minimal-subgraph property forbids leaving it outside (a descendant
  // of the web would reference the variable), so the merge pulls it in.
  auto B = forkGraph();
  B.proc("cold");
  B.call("a", "cold", 1);
  B.ref("cold", "g", 1, true);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS, remergeOptions());
  const Web *Live = nullptr;
  for (const Web &W : Webs)
    if (W.Considered) {
      EXPECT_EQ(Live, nullptr) << "expected a single surviving web";
      Live = &W;
    }
  ASSERT_TRUE(Live);
  EXPECT_TRUE(Live->Nodes.count(CG.findNode("cold")));
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

} // namespace
