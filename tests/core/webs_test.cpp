//===- webs_test.cpp - Web identification tests (Table 2, Figure 2) -------===//
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
using ipra::test::figure3Graph;

namespace {

/// Finds the web of \p Global containing node \p Proc; returns nullptr.
const Web *webContaining(const std::vector<Web> &Webs, const CallGraph &CG,
                         const RefSets &RS, const std::string &Global,
                         const std::string &Proc) {
  int GId = RS.globalId(Global);
  int Node = CG.findNode(Proc);
  for (const Web &W : Webs)
    if (W.GlobalId == GId && W.Nodes.count(Node))
      return &W;
  return nullptr;
}

std::set<std::string> nodeNames(const CallGraph &CG, const Web &W) {
  std::set<std::string> Out;
  for (int N : W.Nodes)
    Out.insert(CG.node(N).QualName);
  return Out;
}

TEST(WebsTest, Table2ExactWebs) {
  CallGraph CG(figure3Graph());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);

  // Table 2: four webs.
  //   1: g3 {A,B,C}   2: g2 {C,F,G}   3: g1 {B,D,E}   4: g2 {E}
  ASSERT_EQ(Webs.size(), 4u);

  const Web *W1 = webContaining(Webs, CG, RS, "g3", "A");
  ASSERT_TRUE(W1);
  EXPECT_EQ(nodeNames(CG, *W1), (std::set<std::string>{"A", "B", "C"}));

  const Web *W2 = webContaining(Webs, CG, RS, "g2", "C");
  ASSERT_TRUE(W2);
  EXPECT_EQ(nodeNames(CG, *W2), (std::set<std::string>{"C", "F", "G"}));

  const Web *W3 = webContaining(Webs, CG, RS, "g1", "B");
  ASSERT_TRUE(W3);
  EXPECT_EQ(nodeNames(CG, *W3), (std::set<std::string>{"B", "D", "E"}));

  const Web *W4 = webContaining(Webs, CG, RS, "g2", "E");
  ASSERT_TRUE(W4);
  EXPECT_EQ(nodeNames(CG, *W4), (std::set<std::string>{"E"}));

  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebsTest, Table2EntryNodes) {
  CallGraph CG(figure3Graph());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);

  // Procedure B is the entry of Web 3 (the paper's worked example);
  // A enters web 1; C enters web 2; E enters web 4.
  auto EntryOf = [&](const char *G, const char *Member) {
    const Web *W = webContaining(Webs, CG, RS, G, Member);
    std::set<std::string> Entries;
    for (int E : W->EntryNodes)
      Entries.insert(CG.node(E).QualName);
    return Entries;
  };
  EXPECT_EQ(EntryOf("g1", "B"), (std::set<std::string>{"B"}));
  EXPECT_EQ(EntryOf("g3", "A"), (std::set<std::string>{"A"}));
  EXPECT_EQ(EntryOf("g2", "C"), (std::set<std::string>{"C"}));
  EXPECT_EQ(EntryOf("g2", "E"), (std::set<std::string>{"E"}));
}

TEST(WebsTest, Table2ColorsWithTwoRegisters) {
  CallGraph CG(figure3Graph());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  // "all four webs can be colored using just two callee-saves
  // registers" (§4.1.4).
  RegMask TwoRegs = pr32::maskOf(13) | pr32::maskOf(14);
  WebColorStats Stats = colorWebsKRegisters(Webs, CG, TwoRegs);
  EXPECT_EQ(Stats.Colored, 4);
  auto Problems = checkColoring(Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();

  // Interfering pairs must differ (web1-web2, web1-web3, web3-web4).
  const Web *W1 = webContaining(Webs, CG, RS, "g3", "A");
  const Web *W2 = webContaining(Webs, CG, RS, "g2", "C");
  const Web *W3 = webContaining(Webs, CG, RS, "g1", "B");
  const Web *W4 = webContaining(Webs, CG, RS, "g2", "E");
  EXPECT_NE(W1->AssignedReg, W2->AssignedReg);
  EXPECT_NE(W1->AssignedReg, W3->AssignedReg);
  EXPECT_NE(W3->AssignedReg, W4->AssignedReg);
}

TEST(WebsTest, DisjointRegionsReuseIsPossible) {
  // Two disjoint subtrees each referencing their own global: webs do
  // not interfere, one register suffices.
  GraphBuilder B;
  B.proc("main").proc("l").proc("r");
  B.global("gl").global("gr");
  B.call("main", "l").call("main", "r");
  B.ref("l", "gl").ref("r", "gr");
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 2u);
  WebColorStats Stats =
      colorWebsKRegisters(Webs, CG, pr32::maskOf(13));
  EXPECT_EQ(Stats.Colored, 2);
  EXPECT_EQ(Webs[0].AssignedReg, Webs[1].AssignedReg);
}

TEST(WebsTest, MixedPredecessorEnlargement) {
  // d is referenced-from below by both an in-web path and an external
  // path; the web must absorb the external predecessor (Figure 2's
  // repeat loop).
  //   main -> a -> c;  main -> b -> c;  a refs g, c refs g, b does not.
  GraphBuilder B;
  B.proc("main").proc("a").proc("b").proc("c");
  B.global("g");
  B.call("main", "a").call("main", "b");
  B.call("a", "c").call("b", "c");
  B.ref("a", "g").ref("c", "g");
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 1u);
  // b (the external predecessor of c) must have been pulled in.
  EXPECT_EQ(nodeNames(CG, Webs[0]),
            (std::set<std::string>{"a", "b", "c"}));
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebsTest, RecursiveCycleFormsWeb) {
  // A cycle referencing g where every cycle node has g in P_REF: the
  // §4.1.2 cycle rule seeds a web from the SCC. The cycle's entry point
  // 'a' has an internal predecessor (b), so enlargement absorbs the
  // external caller 'main', which becomes the web entry.
  GraphBuilder B;
  B.proc("main").proc("a").proc("b");
  B.global("g");
  B.call("main", "a").call("a", "b").call("b", "a");
  B.ref("a", "g").ref("b", "g");
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_EQ(nodeNames(CG, Webs[0]),
            (std::set<std::string>{"main", "a", "b"}));
  ASSERT_EQ(Webs[0].EntryNodes.size(), 1u);
  EXPECT_EQ(CG.node(Webs[0].EntryNodes[0]).QualName, "main");
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebsTest, AncestorReferenceMergesWebs) {
  // g referenced at top and bottom of one chain: a single web spanning
  // the chain (a descendant web would read stale memory).
  GraphBuilder B;
  B.proc("main").proc("mid").proc("leaf");
  B.global("g");
  B.call("main", "mid").call("mid", "leaf");
  B.ref("main", "g").ref("leaf", "g");
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_EQ(nodeNames(CG, Webs[0]),
            (std::set<std::string>{"main", "mid", "leaf"}));
}

TEST(WebsTest, SparseWebDiscarded) {
  // One reference at the top, one at the end of a long chain: the web
  // spans the whole chain with a low L_REF ratio and is discarded from
  // consideration (§6.2).
  GraphBuilder B;
  B.proc("n0");
  B.global("g");
  for (int I = 1; I < 12; ++I) {
    B.proc("n" + std::to_string(I));
    B.call("n" + std::to_string(I - 1), "n" + std::to_string(I));
  }
  B.ref("n0", "g").ref("n11", "g");
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS); // L_REF ratio 2/12, below MinLRefRatio.
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_FALSE(Webs[0].Considered);
  EXPECT_EQ(Webs[0].DiscardReason, "too sparse");
}

TEST(WebsTest, InfrequentSingleNodeWebDiscarded) {
  GraphBuilder B;
  B.proc("main").proc("f");
  B.global("g");
  B.call("main", "f");
  B.ref("f", "g", /*Freq=*/1);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_FALSE(Webs[0].Considered);
  EXPECT_EQ(Webs[0].DiscardReason, "single node, infrequent");
}

TEST(WebsTest, CrossModuleStaticWebDiscarded) {
  // A static of module b.mc whose web entry lands in a.mc: §7.4 says
  // discard (the entry could not insert the load/store).
  ModuleSummary A, Bm;
  A.Module = "a.mc";
  Bm.Module = "b.mc";
  auto MakeProc = [](ModuleSummary &M, const std::string &Name) {
    ProcSummary P;
    P.QualName = Name;
    P.Module = M.Module;
    M.Procs.push_back(P);
  };
  MakeProc(A, "main");
  MakeProc(A, "helper");
  MakeProc(Bm, "bwork");
  A.Procs[0].Calls.push_back(CallSummary{"helper", 1});
  A.Procs[1].Calls.push_back(CallSummary{"bwork", 1});
  GlobalSummary G;
  G.QualName = "b.mc:s";
  G.Module = "b.mc";
  G.IsStatic = true;
  G.IsScalar = true;
  Bm.Globals.push_back(G);
  // helper (module a) references the static via... it cannot in real
  // MiniC, but the web machinery must still behave: bwork references it
  // and helper is pulled in as entry via enlargement? Simpler: make
  // helper reference it directly to force an a.mc entry node.
  Bm.Procs[0].GlobalRefs.push_back(GlobalRefSummary{"b.mc:s", 10, false});
  A.Procs[1].GlobalRefs.push_back(GlobalRefSummary{"b.mc:s", 10, false});

  CallGraph CG({A, Bm});
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_FALSE(Webs[0].Considered);
  EXPECT_EQ(Webs[0].DiscardReason, "static web entry crosses modules");
}

TEST(WebsTest, OverlappingCandidateWebsMerge) {
  // Two entry candidates whose expansions collide (both reach 'shared')
  // must merge into a single web (the merge clause of Figure 2).
  GraphBuilder B;
  B.proc("main").proc("left").proc("right").proc("shared");
  B.global("g");
  B.call("main", "left").call("main", "right");
  B.call("left", "shared").call("right", "shared");
  B.ref("left", "g").ref("right", "g").ref("shared", "g");
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 1u);
  EXPECT_EQ(nodeNames(CG, Webs[0]),
            (std::set<std::string>{"left", "right", "shared"}));
  // Both left and right are entries of the merged web.
  EXPECT_EQ(Webs[0].EntryNodes.size(), 2u);
  auto Problems = checkWebInvariants(CG, RS, Webs);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(WebsTest, ModifiesFlagTracksStores) {
  GraphBuilder B;
  B.proc("main").proc("r").proc("w");
  B.global("gr").global("gw");
  B.call("main", "r").call("main", "w");
  B.ref("r", "gr", 10, /*Stores=*/false);
  B.ref("w", "gw", 10, /*Stores=*/true);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  ASSERT_EQ(Webs.size(), 2u);
  const Web *WR = webContaining(Webs, CG, RS, "gr", "r");
  const Web *WW = webContaining(Webs, CG, RS, "gw", "w");
  EXPECT_FALSE(WR->Modifies);
  EXPECT_TRUE(WW->Modifies);
}

TEST(WebsTest, PriorityReflectsFrequencyTimesInvocation) {
  GraphBuilder B;
  B.proc("main").proc("hot").proc("cold");
  B.global("gh").global("gc");
  B.call("main", "hot", 1000).call("main", "cold", 1);
  B.ref("hot", "gh", 100).ref("cold", "gc", 100);
  CallGraph CG(B.build());
  RefSets RS(CG);
  auto Webs = buildWebs(CG, RS);
  const Web *WH = webContaining(Webs, CG, RS, "gh", "hot");
  const Web *WC = webContaining(Webs, CG, RS, "gc", "cold");
  ASSERT_TRUE(WH && WC);
  EXPECT_GT(WH->Priority, WC->Priority);
}

} // namespace
