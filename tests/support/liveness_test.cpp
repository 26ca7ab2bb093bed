//===- liveness_test.cpp - Shared liveness solver tests -------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The shared solver against the std::set round-robin fixpoint that the
/// register allocator, LICM and DCE each used to carry: hand-built
/// graphs for the shapes that matter (joins, nested loops, self-loops,
/// unreachable and exit nodes, a node that reads and writes one
/// register, an empty universe) and 200 seeded random graphs.
///
//===----------------------------------------------------------------------===//

#include "support/Liveness.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace ipra;

namespace {

/// One instruction: the registers it writes and reads.
struct TestInstr {
  std::vector<unsigned> Defs, Uses;
};

/// Nodes 0..N-1 with successor lists and straight-line code.
struct TestGraph {
  unsigned NumRegs = 0;
  std::vector<std::vector<int>> Succs;
  std::vector<std::vector<TestInstr>> Blocks;

  void addNode(std::vector<TestInstr> Code, std::vector<int> To = {}) {
    Succs.push_back(std::move(To));
    Blocks.push_back(std::move(Code));
  }
};

TestInstr def(unsigned R) { return {{R}, {}}; }
TestInstr use(unsigned R) { return {{}, {R}}; }
TestInstr op(unsigned D, std::vector<unsigned> Uses) { return {{D}, Uses}; }

/// The oracle: the allocator's former round-robin fixpoint over
/// std::set, moved here unchanged apart from reading TestGraph.
void referenceLiveness(const TestGraph &G,
                       std::vector<std::set<unsigned>> &LiveIn,
                       std::vector<std::set<unsigned>> &LiveOut) {
  size_t N = G.Succs.size();
  LiveIn.assign(N, {});
  LiveOut.assign(N, {});

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = N; BI-- > 0;) {
      std::set<unsigned> Out;
      for (int S : G.Succs[BI])
        Out.insert(LiveIn[S].begin(), LiveIn[S].end());
      std::set<unsigned> In = Out;
      const std::vector<TestInstr> &B = G.Blocks[BI];
      for (auto II = B.rbegin(); II != B.rend(); ++II) {
        for (unsigned D : II->Defs)
          In.erase(D);
        for (unsigned U : II->Uses)
          In.insert(U);
      }
      if (Out != LiveOut[BI] || In != LiveIn[BI]) {
        LiveOut[BI] = std::move(Out);
        LiveIn[BI] = std::move(In);
        Changed = true;
      }
    }
  }
}

/// Gen/Kill per node, built the way the solver's callers build them.
Liveness solve(const TestGraph &G) {
  LivenessProblem P(G.Succs.size(), G.NumRegs);
  P.Succs = G.Succs;
  for (size_t BI = 0; BI < G.Blocks.size(); ++BI)
    for (auto II = G.Blocks[BI].rbegin(); II != G.Blocks[BI].rend(); ++II) {
      for (unsigned D : II->Defs)
        P.def(BI, D);
      for (unsigned U : II->Uses)
        P.use(BI, U);
    }
  return P.solve();
}

std::set<unsigned> asSet(const DynBitset &B) {
  std::set<unsigned> S;
  for (size_t Bit : B.bits())
    S.insert(static_cast<unsigned>(Bit));
  return S;
}

/// Solves \p G both ways and expects the same In and Out everywhere.
Liveness expectMatchesReference(const TestGraph &G) {
  std::vector<std::set<unsigned>> RefIn, RefOut;
  referenceLiveness(G, RefIn, RefOut);
  Liveness L = solve(G);
  EXPECT_EQ(L.In.size(), G.Succs.size());
  EXPECT_EQ(L.Out.size(), G.Succs.size());
  for (size_t N = 0; N < G.Succs.size() && N < L.In.size(); ++N) {
    EXPECT_EQ(asSet(L.In[N]), RefIn[N]) << "In of node " << N;
    EXPECT_EQ(asSet(L.Out[N]), RefOut[N]) << "Out of node " << N;
  }
  return L;
}

TEST(LivenessTest, Diamond) {
  // 0 -> {1, 2} -> 3; r0 is redefined on one arm only.
  TestGraph G;
  G.NumRegs = 3;
  G.addNode({def(1)}, {1, 2});
  G.addNode({def(0)}, {3});
  G.addNode({use(1)}, {3});
  G.addNode({use(0)});
  Liveness L = expectMatchesReference(G);
  EXPECT_EQ(asSet(L.In[0]), (std::set<unsigned>{0}));
  EXPECT_EQ(asSet(L.Out[0]), (std::set<unsigned>{0, 1}));
  EXPECT_EQ(asSet(L.In[1]), (std::set<unsigned>{}));
}

TEST(LivenessTest, NestedLoops) {
  // 0 -> 1 (outer header) -> 2 (inner header) <-> 3, 3 -> 4 -> 1, 1 -> 5.
  TestGraph G;
  G.NumRegs = 4;
  G.addNode({def(0), def(1), def(3)}, {1});
  G.addNode({use(0)}, {2, 5});
  G.addNode({op(2, {1})}, {3});
  G.addNode({use(2)}, {2, 4});
  G.addNode({op(0, {0, 3})}, {1});
  G.addNode({use(0)});
  Liveness L = expectMatchesReference(G);
  EXPECT_EQ(asSet(L.In[1]), (std::set<unsigned>{0, 1, 3}));
  EXPECT_EQ(asSet(L.Out[3]), (std::set<unsigned>{0, 1, 3}));
}

TEST(LivenessTest, SelfLoop) {
  TestGraph G;
  G.NumRegs = 2;
  G.addNode({def(0)}, {1});
  G.addNode({op(0, {0}), use(1)}, {1, 2});
  G.addNode({use(0)});
  Liveness L = expectMatchesReference(G);
  EXPECT_EQ(asSet(L.In[1]), (std::set<unsigned>{0, 1}));
  EXPECT_EQ(asSet(L.Out[1]), (std::set<unsigned>{0, 1}));
  EXPECT_EQ(asSet(L.In[0]), (std::set<unsigned>{1}));
}

TEST(LivenessTest, UnreachableNodeNeverFeedsReachableOnes) {
  // Node 2 is unreachable from 0 but branches into 1.
  TestGraph G;
  G.NumRegs = 4;
  G.addNode({}, {1});
  G.addNode({use(0)});
  G.addNode({use(3)}, {1});
  Liveness L = expectMatchesReference(G);
  EXPECT_EQ(asSet(L.In[0]), (std::set<unsigned>{0}));
  EXPECT_EQ(asSet(L.In[2]), (std::set<unsigned>{0, 3}));
}

TEST(LivenessTest, NodeWithoutSuccessors) {
  TestGraph G;
  G.NumRegs = 3;
  G.addNode({use(2), def(1)});
  Liveness L = expectMatchesReference(G);
  EXPECT_EQ(asSet(L.In[0]), (std::set<unsigned>{2}));
  EXPECT_FALSE(L.Out[0].any());
}

TEST(LivenessTest, RegisterUsedAndDefinedInOneNode) {
  // r0 is written before it is read (not live in); r1 is read before it
  // is written (live in); r2 is read and written by one instruction.
  TestGraph G;
  G.NumRegs = 3;
  G.addNode({def(0), use(0), use(1), def(1), op(2, {2})}, {1});
  G.addNode({use(0), use(1), use(2)});
  Liveness L = expectMatchesReference(G);
  EXPECT_EQ(asSet(L.In[0]), (std::set<unsigned>{1, 2}));
  EXPECT_EQ(asSet(L.Out[0]), (std::set<unsigned>{0, 1, 2}));
}

TEST(LivenessTest, EmptyUniverse) {
  TestGraph G;
  G.addNode({TestInstr{}}, {1, 2});
  G.addNode({}, {0});
  G.addNode({});
  Liveness L = expectMatchesReference(G);
  for (size_t N = 0; N < 3; ++N) {
    EXPECT_EQ(L.In[N].size(), 0u);
    EXPECT_FALSE(L.Out[N].any());
  }
  EXPECT_TRUE(LivenessProblem(0, 0).solve().In.empty());
}

TEST(LivenessTest, RandomGraphsMatchReference) {
  for (unsigned Seed = 0; Seed < 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    std::mt19937 Rng(Seed);
    auto Below = [&](unsigned N) {
      return static_cast<unsigned>(Rng() % N);
    };
    TestGraph G;
    // Universes straddle the 64-bit word boundaries.
    G.NumRegs = Below(140);
    unsigned N = 1 + Below(24);
    for (unsigned B = 0; B < N; ++B) {
      std::vector<int> To;
      for (unsigned S = Below(4); S > 0; --S)
        To.push_back(static_cast<int>(Below(N)));
      std::vector<TestInstr> Code;
      for (unsigned I = Below(5); I > 0 && G.NumRegs > 0; --I) {
        TestInstr Instr;
        for (unsigned U = Below(3); U > 0; --U)
          Instr.Uses.push_back(Below(G.NumRegs));
        if (Below(3))
          Instr.Defs.push_back(Below(G.NumRegs));
        Code.push_back(std::move(Instr));
      }
      G.addNode(std::move(Code), std::move(To));
    }
    expectMatchesReference(G);
    if (HasFailure())
      return;
  }
}

} // namespace
