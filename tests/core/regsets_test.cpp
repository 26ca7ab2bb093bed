//===- regsets_test.cpp - Register usage set tests (Figures 6 and 7) ------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "core/RegSets.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;

namespace {

/// The Figure 7 diamond: main -> J; J -> K, L; K -> M; L -> M.
/// Needs: J=0, K=1, L=2, M=1 (the §7.6.2 worked example).
std::vector<ModuleSummary> figure7Graph() {
  GraphBuilder B;
  B.proc("main", 0).proc("J", 0).proc("K", 1).proc("L", 2).proc("M", 1);
  B.call("main", "J", 1);
  B.call("J", "K", 100).call("J", "L", 100);
  B.call("K", "M", 50).call("L", "M", 50);
  return B.build();
}

struct Fixture {
  CallGraph CG;
  std::vector<Cluster> Clusters;
  std::vector<ProcDirectives> Sets;

  Fixture(const std::vector<ModuleSummary> &Summaries,
          const AnalyzerOptions &Options = {})
      : CG(Summaries), Clusters(identifyClusters(CG)),
        Sets(computeRegisterSets(CG, Clusters, {}, Options)) {}

  const ProcDirectives &of(const std::string &Name) const {
    return Sets[CG.findNode(Name)];
  }
};

RegMask R(std::initializer_list<unsigned> Regs) {
  RegMask M = 0;
  for (unsigned Reg : Regs)
    M |= pr32::maskOf(Reg);
  return M;
}

TEST(RegSetsTest, Figure7BaseAllocation) {
  Fixture F(figure7Graph());
  // J roots the cluster {K, L, M}.
  ASSERT_TRUE(F.of("J").IsClusterRoot);

  // With callee-saves r3..r18 and needs K=1, L=2, M=1, the paper's
  // r1/r2/r3 map to our r3/r4/r5:
  //   FREE[K] = {r3}; FREE[L] = {r3, r4}; FREE[M] = {r5}.
  EXPECT_EQ(F.of("K").Free, R({3})) << pr32::maskToString(F.of("K").Free);
  EXPECT_EQ(F.of("L").Free, R({3, 4}))
      << pr32::maskToString(F.of("L").Free);
  EXPECT_EQ(F.of("M").Free, R({5})) << pr32::maskToString(F.of("M").Free);

  // The root spills everything handed out.
  EXPECT_EQ(F.of("J").MSpill, R({3, 4, 5}));

  // Members lose the FREE and still-available registers from CALLEE.
  EXPECT_EQ(F.of("K").Callee & R({3}), 0u);

  // Post-pass: M's FREE register r5 is caller-saves scratch inside K
  // and L (the Figure 7 discussion).
  EXPECT_TRUE(F.of("K").Caller & R({5}));
  EXPECT_TRUE(F.of("L").Caller & R({5}));

  auto Problems = checkRegisterSetInvariants(F.CG, F.Clusters, {}, F.Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, Figure7ImprovedFreeSets) {
  AnalyzerOptions Options;
  Options.ImprovedFreeSets = true;
  Fixture F(figure7Graph(), Options);
  // §7.6.2: "Since r2 will be included in MSPILL[J] and it is not used
  // in M, it could be added to FREE[K]." r2 is our r4.
  EXPECT_TRUE(F.of("K").Free & R({4}))
      << pr32::maskToString(F.of("K").Free);
  // And it must no longer be classified caller-saves at K.
  EXPECT_FALSE(F.of("K").Caller & R({4}));

  auto Problems = checkRegisterSetInvariants(F.CG, F.Clusters, {}, F.Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, NonClusterNodesKeepStandardConvention) {
  Fixture F(figure7Graph());
  const ProcDirectives &Main = F.of("main");
  EXPECT_EQ(Main.Free, 0u);
  EXPECT_EQ(Main.MSpill, 0u);
  EXPECT_EQ(Main.Callee, pr32::calleeSavedMask());
  EXPECT_EQ(Main.Caller, pr32::callerSavedMask());
  EXPECT_FALSE(Main.IsClusterRoot);
}

TEST(RegSetsTest, RootCalleeNeedRespected) {
  // The root's own estimated need is honored first: with J needing 3
  // registers, CALLEE[J] has 3 and AVAIL shrinks accordingly.
  GraphBuilder B;
  B.proc("main", 0).proc("J", 3).proc("K", 2);
  B.call("main", "J", 1).call("J", "K", 100);
  Fixture F(B.build());
  ASSERT_TRUE(F.of("J").IsClusterRoot);
  EXPECT_EQ(pr32::maskCount(F.of("J").Callee), 3u);
  // K's FREE registers avoid the root's CALLEE picks.
  EXPECT_EQ(F.of("K").Free & F.of("J").Callee, 0u);
  auto Problems = checkRegisterSetInvariants(F.CG, F.Clusters, {}, F.Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, SpillCodeMovesUpAcrossNestedClusters) {
  // R roots {S}; S roots {U}. U's FREE register enters MSPILL[S]; the
  // parent pass then moves it (and S's CALLEE overlap) into MSPILL[R].
  GraphBuilder B;
  B.proc("main", 0).proc("R", 0).proc("S", 1).proc("U", 2);
  B.call("main", "R", 1);
  B.call("R", "S", 100);
  B.call("S", "U", 100);
  Fixture F(B.build());
  ASSERT_TRUE(F.of("R").IsClusterRoot);
  ASSERT_TRUE(F.of("S").IsClusterRoot);

  // Everything S would have spilled moved up into R.
  EXPECT_EQ(F.of("S").MSpill, 0u)
      << pr32::maskToString(F.of("S").MSpill);
  EXPECT_NE(F.of("R").MSpill, 0u);
  // S's own CALLEE registers became FREE at S (the parent spills them).
  EXPECT_NE(F.of("S").Free, 0u);
  EXPECT_EQ(F.of("S").Free & F.of("S").Callee, 0u);
  // U's FREE register is covered by R's MSPILL.
  EXPECT_EQ(F.of("U").Free & ~F.of("R").MSpill, 0u);

  auto Problems = checkRegisterSetInvariants(F.CG, F.Clusters, {}, F.Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, WebRegistersExcludedFromAvail) {
  // A colored web over the cluster removes its register from every
  // node's allocation (base algorithm: from the whole cluster).
  auto Summaries = figure7Graph();
  CallGraph CG(Summaries);
  auto Clusters = identifyClusters(CG);

  Web W;
  W.Id = 0;
  W.GlobalId = 0;
  W.AssignedReg = 3; // r3 dedicated in K and M.
  W.Nodes = {CG.findNode("K"), CG.findNode("M")};
  std::vector<Web> Webs = {W};

  auto Sets = computeRegisterSets(CG, Clusters, Webs, {});
  for (const char *Node : {"J", "K", "L", "M"}) {
    const ProcDirectives &D = Sets[CG.findNode(Node)];
    EXPECT_FALSE(D.Free & R({3})) << Node;
    EXPECT_FALSE(D.MSpill & R({3})) << Node;
  }
  auto Problems = checkRegisterSetInvariants(CG, Clusters, Webs, Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, RelaxedWebAvailFreesOtherPaths) {
  // With the §7.6.2 relaxation, the web register is only blocked at
  // covered nodes: L (not covered) may still receive r3.
  auto Summaries = figure7Graph();
  CallGraph CG(Summaries);
  auto Clusters = identifyClusters(CG);

  Web W;
  W.Id = 0;
  W.GlobalId = 0;
  W.AssignedReg = 3;
  W.Nodes = {CG.findNode("K"), CG.findNode("M")};
  std::vector<Web> Webs = {W};

  AnalyzerOptions Options;
  Options.RelaxWebAvail = true;
  auto Sets = computeRegisterSets(CG, Clusters, Webs, Options);
  EXPECT_FALSE(Sets[CG.findNode("K")].Free & R({3}));
  EXPECT_FALSE(Sets[CG.findNode("M")].Free & R({3}));
  // L's path does not carry the web; r3 is first in its priority order.
  EXPECT_TRUE(Sets[CG.findNode("L")].Free & R({3}))
      << pr32::maskToString(Sets[CG.findNode("L")].Free);
  auto Problems = checkRegisterSetInvariants(CG, Clusters, Webs, Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, ChildMSpillSteersSelectionOrder) {
  // The parent's interior nodes should prefer registers outside the
  // child cluster's MSPILL so the child's spill code can move up.
  GraphBuilder B;
  B.proc("main", 0).proc("R", 0).proc("A", 1).proc("S", 0).proc("U", 1);
  B.call("main", "R", 1);
  B.call("R", "A", 100); // Interior node of R's cluster.
  B.call("R", "S", 100); // S roots a child cluster.
  B.call("S", "U", 100);
  Fixture F(B.build());
  ASSERT_TRUE(F.of("R").IsClusterRoot);
  ASSERT_TRUE(F.of("S").IsClusterRoot);
  // U's register moved up: S spills nothing anymore.
  EXPECT_EQ(F.of("S").MSpill, 0u);
  // A's FREE register differs from what U took (the selection order
  // avoided the child MSPILL).
  EXPECT_EQ(F.of("A").Free & F.of("U").Free, 0u);
  auto Problems = checkRegisterSetInvariants(F.CG, F.Clusters, {}, F.Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, ChildRootLiveRegistersNotGrantedToItsSuccessors) {
  // Regression (found by differential testing): R roots the outer
  // cluster {S, T}; S roots an inner cluster {U} and ALSO calls T. The
  // child-root conversion gives S FREE registers (its old CALLEE set)
  // that stay live across S's call to T, so they must not reach T as
  // FREE or caller-saves scratch. Figure 6 elides this AVAIL
  // subtraction; the AVAIL definition in §4.2.4 requires it.
  GraphBuilder B;
  B.proc("main", 0).proc("R", 0).proc("S", 3).proc("T", 2).proc("U", 2);
  B.call("main", "R", 1);
  B.call("R", "S", 100);
  B.call("S", "U", 100);
  B.call("S", "T", 100);
  Fixture F(B.build());
  ASSERT_TRUE(F.of("R").IsClusterRoot);
  ASSERT_TRUE(F.of("S").IsClusterRoot);
  ASSERT_NE(F.of("S").Free, 0u);

  RegMask SLive = F.of("S").Free;
  RegMask TUse =
      F.of("T").Free | (F.of("T").Caller & pr32::calleeSavedMask());
  EXPECT_EQ(SLive & TUse, 0u)
      << "S holds " << pr32::maskToString(SLive) << " live; T may clobber "
      << pr32::maskToString(TUse);
  // U's FREE registers may overlap T's scratch: U and T only ever run
  // in sibling activations (property [2] keeps U from calling into R's
  // cluster), so that sharing is safe and even desirable.

  auto Problems = checkRegisterSetInvariants(F.CG, F.Clusters, {}, F.Sets);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(RegSetsTest, SetsAreDisjointPerNode) {
  Fixture F(figure7Graph());
  for (const CGNode &Node : F.CG.nodes()) {
    const ProcDirectives &D = F.Sets[Node.Id];
    EXPECT_EQ(D.Free & D.Callee, 0u) << Node.QualName;
    EXPECT_EQ(D.Free & D.MSpill, 0u) << Node.QualName;
  }
}

} // namespace
