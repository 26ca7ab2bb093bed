//===- graph_test.cpp - Reverse postorder, dominators and SCCs ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// support/Graph.h on hand-checked small graphs (a diamond, several
/// starts, unreachable nodes, a self-loop, an irreducible loop) and on
/// seeded random graphs checked against the definitions: a node
/// dominates another iff removing it cuts the other off from every
/// start; an SCC is a maximal set of mutually reachable nodes; every
/// edge between components enters one emitted earlier.
///
//===----------------------------------------------------------------------===//

#include "support/Graph.h"

#include <gtest/gtest.h>

#include <random>

using namespace ipra;

namespace {

struct TestGraph {
  std::vector<std::vector<int>> Succs, Preds;

  explicit TestGraph(size_t N) : Succs(N), Preds(N) {}
  TestGraph(size_t N, std::vector<std::pair<int, int>> Edges) : TestGraph(N) {
    for (auto [From, To] : Edges)
      addEdge(From, To);
  }

  size_t size() const { return Succs.size(); }
  void addEdge(int From, int To) {
    Succs[From].push_back(To);
    Preds[To].push_back(From);
  }

  DfsOrder rpo(const std::vector<int> &Starts) const {
    return reversePostOrder(size(), Starts,
                            [this](int N) -> const std::vector<int> & {
                              return Succs[N];
                            });
  }
  std::vector<int> idoms(const std::vector<int> &Starts) const {
    return immediateDominators(rpo(Starts), Starts,
                               [this](int N) -> const std::vector<int> & {
                                 return Preds[N];
                               });
  }
  std::vector<std::vector<int>> sccs() const {
    std::vector<std::vector<int>> Out;
    forEachScc(
        size(),
        [this](int N) -> const std::vector<int> & { return Succs[N]; },
        [&Out](const std::vector<int> &Members) { Out.push_back(Members); });
    return Out;
  }

  /// Nodes reachable from \p Starts without passing through \p Removed.
  std::vector<char> reachable(const std::vector<int> &Starts,
                              int Removed = -1) const {
    std::vector<char> Seen(size(), 0);
    std::vector<int> Work;
    for (int S : Starts)
      if (S != Removed && !Seen[S]) {
        Seen[S] = 1;
        Work.push_back(S);
      }
    while (!Work.empty()) {
      int N = Work.back();
      Work.pop_back();
      for (int S : Succs[N])
        if (S != Removed && !Seen[S]) {
          Seen[S] = 1;
          Work.push_back(S);
        }
    }
    return Seen;
  }
};

using Groups = std::vector<std::vector<int>>;

TEST(GraphTest, Diamond) {
  TestGraph G(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  DfsOrder O = G.rpo({0});
  EXPECT_EQ(O.Rpo, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(O.RpoIndex, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(G.idoms({0}), (std::vector<int>{-1, 0, 0, 0}));
  EXPECT_EQ(G.sccs(), (Groups{{3}, {1}, {2}, {0}}));
}

TEST(GraphTest, SeveralStartsShareAVirtualRoot) {
  // Starts 3 and 0 both reach 1; 4 joins 1 and 2.
  TestGraph G(5, {{3, 1}, {0, 1}, {0, 2}, {1, 4}, {2, 4}});
  DfsOrder O = G.rpo({3, 0});
  EXPECT_EQ(O.Rpo, (std::vector<int>{0, 2, 3, 1, 4}));
  // 1 and 4 are dominated by no real node, only by the virtual root.
  EXPECT_EQ(G.idoms({3, 0}), (std::vector<int>{-1, -1, 0, -1, -1}));
  EXPECT_EQ(G.sccs(), (Groups{{4}, {1}, {2}, {0}, {3}}));
}

TEST(GraphTest, UnreachableNodes) {
  TestGraph G(4, {{0, 1}, {2, 1}, {2, 3}});
  DfsOrder O = G.rpo({0});
  EXPECT_EQ(O.Rpo, (std::vector<int>{0, 1}));
  EXPECT_EQ(O.RpoIndex, (std::vector<int>{0, 1, -1, -1}));
  EXPECT_FALSE(O.reached(2));
  // The unreached predecessor 2 does not weaken 1's dominator.
  EXPECT_EQ(G.idoms({0}), (std::vector<int>{-1, 0, -2, -2}));
  EXPECT_EQ(G.sccs(), (Groups{{1}, {0}, {3}, {2}}));
}

TEST(GraphTest, SelfLoopIsItsOwnComponent) {
  TestGraph G(3, {{0, 1}, {1, 1}, {1, 2}});
  EXPECT_EQ(G.rpo({0}).Rpo, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(G.idoms({0}), (std::vector<int>{-1, 0, 1}));
  EXPECT_EQ(G.sccs(), (Groups{{2}, {1}, {0}}));
}

TEST(GraphTest, IrreducibleLoop) {
  // The loop {1, 2} has two entries, so neither member dominates the
  // other; 3 leaves from 1.
  TestGraph G(4, {{0, 1}, {0, 2}, {1, 2}, {2, 1}, {1, 3}});
  EXPECT_EQ(G.rpo({0}).Rpo, (std::vector<int>{0, 1, 3, 2}));
  EXPECT_EQ(G.idoms({0}), (std::vector<int>{-1, 0, 0, 1}));
  EXPECT_EQ(G.sccs(), (Groups{{3}, {1, 2}, {0}}));
}

TEST(GraphTest, EmptyGraph) {
  TestGraph G(0);
  EXPECT_TRUE(G.rpo({}).Rpo.empty());
  EXPECT_TRUE(G.idoms({}).empty());
  EXPECT_TRUE(G.sccs().empty());
}

/// A random graph of 1..24 nodes with 1..3 distinct starts.
TestGraph randomGraph(std::mt19937 &Rng, std::vector<int> &Starts) {
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % static_cast<unsigned>(N));
  };
  int N = 1 + Rand(24);
  TestGraph G(N);
  int NumEdges = Rand(2 * N + 1);
  for (int E = 0; E < NumEdges; ++E)
    G.addEdge(Rand(N), Rand(N));
  Starts.clear();
  for (int S = 1 + Rand(3); S > 0; --S) {
    int Start = Rand(N);
    if (std::find(Starts.begin(), Starts.end(), Start) == Starts.end())
      Starts.push_back(Start);
  }
  return G;
}

TEST(GraphTest, RandomGraphsMatchTheDefinitions) {
  std::mt19937 Rng(20261019);
  for (int Round = 0; Round < 300; ++Round) {
    SCOPED_TRACE("round " + std::to_string(Round));
    std::vector<int> Starts;
    TestGraph G = randomGraph(Rng, Starts);
    int N = static_cast<int>(G.size());
    std::vector<char> Reach = G.reachable(Starts);

    // RPO: exactly the reachable nodes, each once, and an edge that
    // does not go forward in the order closes a cycle.
    DfsOrder O = G.rpo(Starts);
    for (int V = 0; V < N; ++V)
      EXPECT_EQ(O.reached(V), Reach[V] != 0) << "node " << V;
    for (size_t I = 0; I < O.Rpo.size(); ++I)
      ASSERT_EQ(O.RpoIndex[O.Rpo[I]], static_cast<int>(I));
    for (int U : O.Rpo)
      for (int V : G.Succs[U])
        if (O.RpoIndex[V] <= O.RpoIndex[U]) {
          EXPECT_TRUE(G.reachable({V})[U]) << U << " -> " << V;
        }

    // Dominators: A dominates B iff removing A cuts B off from every
    // start; the idom chain lists exactly B's strict dominators.
    std::vector<int> IDom = G.idoms(Starts);
    for (int B = 0; B < N; ++B) {
      if (!Reach[B]) {
        EXPECT_EQ(IDom[B], -2) << "node " << B;
        continue;
      }
      std::vector<char> OnChain(N, 0);
      for (int D = IDom[B]; D != -1; D = IDom[D]) {
        ASSERT_GE(D, 0) << "node " << B;
        OnChain[D] = 1;
      }
      for (int A = 0; A < N; ++A) {
        if (A != B && Reach[A]) {
          EXPECT_EQ(OnChain[A] != 0, !G.reachable(Starts, A)[B])
              << A << " dom " << B;
        }
      }
      if (std::find(Starts.begin(), Starts.end(), B) != Starts.end()) {
        EXPECT_EQ(IDom[B], -1) << "start " << B;
      }
    }

    // SCCs: a partition into maximal mutually reachable sets, members
    // ascending, emitted callee-first.
    Groups Sccs = G.sccs();
    std::vector<int> Comp(N, -1);
    for (size_t C = 0; C < Sccs.size(); ++C) {
      EXPECT_TRUE(std::is_sorted(Sccs[C].begin(), Sccs[C].end()));
      for (int V : Sccs[C]) {
        ASSERT_EQ(Comp[V], -1) << "node " << V << " in two components";
        Comp[V] = static_cast<int>(C);
      }
    }
    std::vector<std::vector<char>> From(N);
    for (int V = 0; V < N; ++V) {
      ASSERT_NE(Comp[V], -1) << "node " << V << " in no component";
      From[V] = G.reachable({V});
    }
    for (int U = 0; U < N; ++U)
      for (int V = 0; V < N; ++V)
        EXPECT_EQ(Comp[U] == Comp[V], From[U][V] && From[V][U])
            << U << " ~ " << V;
    for (int U = 0; U < N; ++U)
      for (int V : G.Succs[U])
        if (Comp[U] != Comp[V]) {
          EXPECT_LT(Comp[V], Comp[U]) << U << " -> " << V;
        }
  }
}

} // namespace
