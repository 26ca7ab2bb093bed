//===- webcolor_test.cpp - Web coloring strategy tests --------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "core/WebColor.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;

namespace {

/// A star of \p N children under main, each referencing its own global;
/// every web contains only its child plus interference through main?
/// No: children are disjoint, so all webs are pairwise non-interfering.
std::vector<ModuleSummary> starGraph(int N) {
  GraphBuilder B;
  B.proc("main");
  for (int I = 0; I < N; ++I) {
    std::string P = "p" + std::to_string(I);
    std::string G = "g" + std::to_string(I);
    B.proc(P).global(G);
    B.call("main", P);
    B.ref(P, G, 10);
  }
  return B.build();
}

/// One hub procedure referencing \p N globals: all webs share the hub
/// and pairwise interfere.
std::vector<ModuleSummary> hubGraph(int N, unsigned HubNeed = 2) {
  GraphBuilder B;
  B.proc("main").proc("hub", HubNeed);
  B.call("main", "hub");
  for (int I = 0; I < N; ++I) {
    std::string G = "g" + std::to_string(I);
    B.global(G);
    B.ref("hub", G, 10 + N - I); // Distinct priorities, g0 hottest.
  }
  return B.build();
}

TEST(WebColorTest, NonInterferingWebsShareOneRegister) {
  CallGraph CG(starGraph(8));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 8u);
  auto Stats = colorWebsKRegisters(Webs, CG, pr32::maskOf(13));
  EXPECT_EQ(Stats.Colored, 8);
  for (const Web &W : Webs)
    EXPECT_EQ(W.AssignedReg, 13);
}

TEST(WebColorTest, InterferingWebsLimitedByPoolSize) {
  CallGraph CG(hubGraph(10));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 10u);
  auto Stats =
      colorWebsKRegisters(Webs, CG, pr32::defaultWebColoringPool());
  EXPECT_EQ(Stats.Colored, 6); // Six registers in the pool.
  auto Problems = checkColoring(Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebColorTest, PriorityOrderWinsThePool) {
  CallGraph CG(hubGraph(10));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  colorWebsKRegisters(Webs, CG, pr32::defaultWebColoringPool());
  // The six hottest globals (g0..g5) got the registers.
  for (const Web &W : Webs) {
    bool Hot = W.GlobalId == RS.globalId("g0") ||
               W.GlobalId == RS.globalId("g1") ||
               W.GlobalId == RS.globalId("g2") ||
               W.GlobalId == RS.globalId("g3") ||
               W.GlobalId == RS.globalId("g4") ||
               W.GlobalId == RS.globalId("g5");
    EXPECT_EQ(W.AssignedReg >= 0, Hot) << RS.globalName(W.GlobalId);
  }
}

TEST(WebColorTest, GreedyUsesWholeCalleeSet) {
  CallGraph CG(hubGraph(14, /*HubNeed=*/0));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  auto Stats = colorWebsGreedy(Webs, CG);
  // With no procedure needs, greedy can use all 16 callee-saves.
  EXPECT_EQ(Stats.Colored, 14);
  auto Problems = checkColoring(Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebColorTest, GreedyRespectsProcedureNeeds) {
  // The hub itself needs 14 callee-saves registers: greedy may only
  // reserve 2 more there (§6.1's "without reserving any of the
  // callee-saves registers required for any individual procedure").
  CallGraph CG(hubGraph(10, /*HubNeed=*/14));
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  auto Stats = colorWebsGreedy(Webs, CG);
  EXPECT_EQ(Stats.Colored, 2);
}

TEST(WebColorTest, BlanketPicksHottestGlobals) {
  CallGraph CG(hubGraph(10));
  RefSets RS(CG);
  auto Webs = buildBlanketWebs(CG, RS, pr32::defaultWebColoringPool());
  ASSERT_EQ(Webs.size(), 6u);
  // Every blanket web spans the whole graph and is colored.
  for (const Web &W : Webs) {
    EXPECT_EQ(W.Nodes.size(), static_cast<size_t>(CG.size()));
    EXPECT_GE(W.AssignedReg, 0);
  }
  // Distinct registers (they all interfere).
  auto Problems = checkColoring(Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
  // The hottest global got a register.
  bool FoundHottest = false;
  for (const Web &W : Webs)
    FoundHottest |= W.GlobalId == RS.globalId("g0");
  EXPECT_TRUE(FoundHottest);
}

TEST(WebColorTest, BlanketEntryIsProgramStart) {
  CallGraph CG(hubGraph(3));
  RefSets RS(CG);
  auto Webs = buildBlanketWebs(CG, RS, pr32::defaultWebColoringPool());
  ASSERT_FALSE(Webs.empty());
  for (const Web &W : Webs) {
    ASSERT_EQ(W.EntryNodes.size(), 1u);
    EXPECT_EQ(CG.node(W.EntryNodes[0]).QualName, "main");
  }
}

TEST(WebColorTest, CheckColoringCatchesConflicts) {
  Web A, B;
  A.Id = 0;
  B.Id = 1;
  A.GlobalId = 0;
  B.GlobalId = 1;
  A.Nodes = {1, 2};
  B.Nodes = {2, 3};
  A.AssignedReg = 5;
  B.AssignedReg = 5;
  auto Problems = checkColoring({A, B});
  ASSERT_EQ(Problems.size(), 1u);
  EXPECT_NE(Problems[0].find("share a register"), std::string::npos);
}

} // namespace
