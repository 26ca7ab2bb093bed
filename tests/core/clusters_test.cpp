//===- clusters_test.cpp - Cluster identification tests (Figure 5) --------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "GraphFixtures.h"

#include "core/Clusters.h"

#include <gtest/gtest.h>

using namespace ipra;
using ipra::test::GraphBuilder;

namespace {

const Cluster *clusterRootedAt(const std::vector<Cluster> &Clusters,
                               const CallGraph &CG,
                               const std::string &Root) {
  int Node = CG.findNode(Root);
  for (const Cluster &C : Clusters)
    if (C.Root == Node)
      return &C;
  return nullptr;
}

std::set<std::string> memberNames(const CallGraph &CG, const Cluster &C) {
  std::set<std::string> Out;
  for (int M : C.Members)
    Out.insert(CG.node(M).QualName);
  return Out;
}

TEST(ClustersTest, Figure4Scenario) {
  // R calls S and T much more often than R itself is called: R roots a
  // cluster containing S and T, whose spill code moves into R.
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("T");
  B.call("main", "R", 1);
  B.call("R", "S", 100).call("R", "T", 100);
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C = clusterRootedAt(Clusters, CG, "R");
  ASSERT_TRUE(C);
  EXPECT_EQ(memberNames(CG, *C), (std::set<std::string>{"S", "T"}));
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(ClustersTest, ColdCalleesDoNotFormCluster) {
  // R is called often but its call to S sits in cold code: only profile
  // data can reveal this (heuristic local frequencies are at least one
  // call per invocation), and with it R must not root a cluster.
  GraphBuilder B;
  B.proc("main").proc("R").proc("S");
  B.call("main", "R", 100);
  B.call("R", "S", 1);
  CallProfile Profile;
  Profile.CallCounts = {{"main", 1}, {"R", 1000}, {"S", 3}};
  Profile.EdgeCounts = {{{"main", "R"}, 1000}, {{"R", "S"}, 3}};
  CallGraph CG(B.build(), Profile);
  auto Clusters = identifyClusters(CG);
  EXPECT_EQ(clusterRootedAt(Clusters, CG, "R"), nullptr);
}

TEST(ClustersTest, RecursiveNodesExcludedFromMembership) {
  // "the algorithm ... is designed to disallow recursive call cycles
  // within clusters" (§4.2.2).
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("T");
  B.call("main", "R", 1);
  B.call("R", "S", 100).call("R", "T", 100);
  B.call("S", "S", 50); // S is self-recursive.
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C = clusterRootedAt(Clusters, CG, "R");
  ASSERT_TRUE(C);
  EXPECT_EQ(memberNames(CG, *C), (std::set<std::string>{"T"}));
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(ClustersTest, MutualRecursionExcluded) {
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("T");
  B.call("main", "R", 1);
  B.call("R", "S", 100).call("R", "T", 100);
  B.call("S", "T", 10).call("T", "S", 10); // S <-> T cycle.
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C = clusterRootedAt(Clusters, CG, "R");
  if (C) {
    EXPECT_TRUE(C->Members.empty() ||
                (memberNames(CG, *C).count("S") == 0 &&
                 memberNames(CG, *C).count("T") == 0));
  }
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << (Problems.empty() ? "" : Problems[0]);
}

TEST(ClustersTest, SharedCalleeNeedsBothPredecessors) {
  // M's predecessors K and L must both be members before M joins
  // (property [2]); the diamond J -> {K,L} -> M all lands in J's
  // cluster.
  GraphBuilder B;
  B.proc("main").proc("J").proc("K").proc("L").proc("M");
  B.call("main", "J", 1);
  B.call("J", "K", 100).call("J", "L", 100);
  B.call("K", "M", 50).call("L", "M", 50);
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C = clusterRootedAt(Clusters, CG, "J");
  ASSERT_TRUE(C);
  EXPECT_EQ(memberNames(CG, *C), (std::set<std::string>{"K", "L", "M"}));
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(ClustersTest, ExternalPredecessorBlocksMembership) {
  // X (outside the would-be cluster) also calls M: property [2] fails
  // for M, which must stay out.
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("M").proc("X");
  B.call("main", "R", 1).call("main", "X", 1);
  B.call("R", "S", 100).call("S", "M", 100);
  B.call("X", "M", 5);
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C = clusterRootedAt(Clusters, CG, "R");
  ASSERT_TRUE(C);
  EXPECT_EQ(memberNames(CG, *C).count("M"), 0u);
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(ClustersTest, NestedClustersChildRootIsParentMember) {
  // "the definition of a cluster allows leaf nodes of a cluster to be
  // root nodes of other clusters" (§4.2.1): R roots {S}, S roots {U,V}.
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("U").proc("V");
  B.call("main", "R", 1);
  B.call("R", "S", 100);
  B.call("S", "U", 100).call("S", "V", 100);
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *CR = clusterRootedAt(Clusters, CG, "R");
  const Cluster *CS = clusterRootedAt(Clusters, CG, "S");
  ASSERT_TRUE(CR);
  ASSERT_TRUE(CS);
  EXPECT_TRUE(memberNames(CG, *CR).count("S"));
  EXPECT_EQ(memberNames(CG, *CS), (std::set<std::string>{"U", "V"}));
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(ClustersTest, ClusterWithinCallCycle) {
  // Footnote 4: clusters can be identified within cycles; a node inside
  // a recursive region may still root a cluster over an acyclic
  // subregion.
  GraphBuilder B;
  B.proc("main").proc("R").proc("S").proc("T");
  B.call("main", "R", 1);
  B.call("R", "R", 5); // R recurses.
  B.call("R", "S", 100).call("R", "T", 100);
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C = clusterRootedAt(Clusters, CG, "R");
  ASSERT_TRUE(C);
  EXPECT_EQ(memberNames(CG, *C), (std::set<std::string>{"S", "T"}));
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

TEST(ClustersTest, NearestRootClaimsNode) {
  // Property [3]: a node dominated by two roots joins the nearest one.
  GraphBuilder B;
  B.proc("main").proc("R1").proc("R2").proc("X");
  B.call("main", "R1", 1);
  B.call("R1", "R2", 100);
  B.call("R2", "X", 100);
  CallGraph CG(B.build());
  auto Clusters = identifyClusters(CG);
  const Cluster *C1 = clusterRootedAt(Clusters, CG, "R1");
  const Cluster *C2 = clusterRootedAt(Clusters, CG, "R2");
  ASSERT_TRUE(C1);
  ASSERT_TRUE(C2);
  EXPECT_TRUE(memberNames(CG, *C2).count("X"));
  EXPECT_FALSE(memberNames(CG, *C1).count("X"));
  auto Problems = checkClusterInvariants(CG, Clusters);
  EXPECT_TRUE(Problems.empty()) << Problems.front();
}

// The §4.2.2 root test is strict at the fixed RootBenefitThreshold
// (1.0): with profiled counts, calls out to dominated successors equal
// to the calls in leave R a plain node, and one call more makes it a
// root.
TEST(ClustersTest, FixedThresholdBoundsRootSelection) {
  GraphBuilder B;
  B.proc("main").proc("R").proc("S");
  B.call("main", "R").call("R", "S");
  for (long long Out : {10, 11}) {
    CallProfile Profile;
    Profile.CallCounts = {{"main", 1}, {"R", 10}, {"S", Out}};
    Profile.EdgeCounts = {{{"main", "R"}, 10}, {{"R", "S"}, Out}};
    CallGraph CG(B.build(), Profile);
    auto Clusters = identifyClusters(CG);
    EXPECT_EQ(clusterRootedAt(Clusters, CG, "R") != nullptr, Out == 11)
        << "calls out " << Out;
  }
}

} // namespace
