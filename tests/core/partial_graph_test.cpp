//===- partial_graph_test.cpp - §7.2 partial call graph tests -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "core/Analyzer.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;

namespace {

/// A library-shaped module: an exported API procedure fanning out to
/// internal statics, a hot static global, and an exported global.
std::vector<ModuleSummary> libraryGraph() {
  ModuleSummary S;
  S.Module = "lib.mc";
  auto Proc = [&S](const std::string &Name, unsigned Regs = 2) {
    ProcSummary P;
    P.QualName = Name;
    P.Module = "lib.mc";
    P.CalleeRegsNeeded = Regs;
    S.Procs.push_back(std::move(P));
  };
  auto Call = [&S](const std::string &From, const std::string &To,
                   long long Freq) {
    for (ProcSummary &P : S.Procs)
      if (P.QualName == From)
        P.Calls.push_back(CallSummary{To, Freq});
  };
  auto Ref = [&S](const std::string &Proc, const std::string &Global,
                  long long Freq) {
    for (ProcSummary &P : S.Procs)
      if (P.QualName == Proc)
        P.GlobalRefs.push_back(GlobalRefSummary{Global, Freq, true});
  };
  // api (exported) -> helper1/helper2 (statics) -> exported_leaf.
  Proc("api");
  Proc("lib.mc:helper1");
  Proc("lib.mc:helper2");
  Proc("exported_leaf");
  Call("api", "lib.mc:helper1", 100);
  Call("api", "lib.mc:helper2", 100);
  Call("lib.mc:helper1", "exported_leaf", 50);
  Call("lib.mc:helper2", "exported_leaf", 50);

  GlobalSummary Priv;
  Priv.QualName = "lib.mc:state";
  Priv.Module = "lib.mc";
  Priv.IsStatic = true;
  Priv.IsScalar = true;
  S.Globals.push_back(Priv);
  GlobalSummary Pub;
  Pub.QualName = "shared";
  Pub.Module = "lib.mc";
  Pub.IsScalar = true;
  S.Globals.push_back(Pub);

  Ref("lib.mc:helper1", "lib.mc:state", 40);
  Ref("lib.mc:helper2", "lib.mc:state", 40);
  Ref("api", "shared", 40);
  return {S};
}

TEST(PartialGraphTest, OnlyStaticsEligible) {
  CallGraph CG(libraryGraph());
  RefSets Closed(CG, /*ClosedWorld=*/true);
  RefSets Partial(CG, /*ClosedWorld=*/false);
  EXPECT_EQ(Closed.numEligible(), 2);
  EXPECT_EQ(Partial.numEligible(), 1);
  EXPECT_GE(Partial.globalId("lib.mc:state"), 0);
  EXPECT_EQ(Partial.globalId("shared"), -1);
}

TEST(PartialGraphTest, ExportedInteriorNodesDiscardWebs) {
  CallGraph CG(libraryGraph());
  RefSets RS(CG, /*ClosedWorld=*/false);
  AnalyzerOptions Options;
  Options.AssumeClosedWorld = false;
  auto Webs = buildWebs(CG, RS, Options);

  // The state web spans helper1/helper2 and absorbs api (the common
  // caller, via mixed-pred enlargement) -- the exported leaf is not in
  // it, so the web survives with 'api' as its entry. Exported entries
  // are fine; exported interiors are not.
  for (const Web &W : Webs) {
    if (!W.Considered)
      continue;
    std::set<int> Entries(W.EntryNodes.begin(), W.EntryNodes.end());
    for (int N : W.Nodes)
      if (!Entries.count(N)) {
        EXPECT_FALSE(CG.node(N).ExternallyVisible)
            << CG.node(N).QualName;
      }
  }
}

TEST(PartialGraphTest, ExportedProceduresNotClusterMembers) {
  CallGraph CG(libraryGraph());
  auto Clusters = identifyClusters(CG, /*AssumeClosedWorld=*/false);
  for (const Cluster &C : Clusters)
    for (int M : C.Members)
      EXPECT_FALSE(CG.node(M).ExternallyVisible)
          << CG.node(M).QualName;
  // Closed-world analysis of the same graph does use the exported leaf.
  auto ClosedClusters = identifyClusters(CG);
  bool LeafIsMember = false;
  for (const Cluster &C : ClosedClusters)
    for (int M : C.Members)
      LeafIsMember |= CG.node(M).QualName == "exported_leaf";
  EXPECT_TRUE(LeafIsMember);
}

TEST(PartialGraphTest, AddressTakenProcIsExternallyVisible) {
  GraphBuilder B;
  B.proc("main");
  B.proc("cb"); // Unqualified, but also address-taken.
  B.call("main", "cb");
  B.addressTaken("main", "cb");
  CallGraph CG(B.build());
  EXPECT_TRUE(CG.node(CG.findNode("cb")).ExternallyVisible);
}

TEST(PartialGraphTest, AnalyzerEndToEnd) {
  AnalyzerOptions Options;
  Options.AssumeClosedWorld = false;
  AnalyzerStats Stats;
  ProgramDatabase DB = runAnalyzer(libraryGraph(), Options, {}, &Stats);
  EXPECT_EQ(Stats.EligibleGlobals, 1);
  // 'shared' is never promoted anywhere.
  for (const auto &[Name, Dir] : DB.procs())
    for (const PromotedGlobal &P : Dir.Promoted)
      EXPECT_NE(P.QualName, "shared") << Name;
}

} // namespace
