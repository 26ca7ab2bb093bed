//===- CFG.cpp - Control-flow graph analyses ------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"

#include <algorithm>

using namespace ipra;

CFGInfo::CFGInfo(const IRFunction &F) {
  size_t N = F.Blocks.size();
  Preds.resize(N);
  Succs.resize(N);
  for (const auto &B : F.Blocks)
    Succs[B->Id] = B->successors();

  Order = reversePostOrder(N, {0}, [this](int B) -> const std::vector<int> & {
    return Succs[B];
  });

  // Only count predecessors that are reachable.
  for (int B : Order.Rpo)
    for (int S : Succs[B])
      Preds[S].push_back(B);
}

void CFGInfo::computeLoops() const {
  if (HaveLoops)
    return;
  HaveLoops = true; // Before computeLoopDepths, which asks dominates.
  IDom = immediateDominators(Order, {0},
                             [this](int B) -> const std::vector<int> & {
                               return Preds[B];
                             });
  LoopDepth.assign(Preds.size(), 0);
  computeLoopDepths();
}

bool CFGInfo::dominates(int A, int B) const {
  computeLoops();
  if (!isReachable(A) || !isReachable(B))
    return false;
  while (B != -1) {
    if (A == B)
      return true;
    B = IDom[B];
  }
  return false;
}

void CFGInfo::computeLoopDepths() const {
  // Natural loops: for each back edge (T -> H) where H dominates T,
  // collect the loop body and bump the depth of every member. Back
  // edges sharing a header merge into one Loop record.
  size_t N = Preds.size();
  std::vector<std::vector<char>> Members(N); // By header; empty: none.
  std::vector<char> InLoop(N);
  std::vector<int> Work;
  for (int T : Order.Rpo) {
    for (int H : Succs[T]) {
      if (!dominates(H, T))
        continue;
      // Back edge T -> H. Walk predecessors from T until H.
      std::fill(InLoop.begin(), InLoop.end(), 0);
      InLoop[H] = 1;
      if (!InLoop[T]) {
        InLoop[T] = 1;
        Work.push_back(T);
      }
      while (!Work.empty()) {
        int B = Work.back();
        Work.pop_back();
        for (int P : Preds[B]) {
          if (!InLoop[P]) {
            InLoop[P] = 1;
            Work.push_back(P);
          }
        }
      }
      Members[H].resize(N, 0);
      for (size_t B = 0; B < N; ++B)
        if (InLoop[B]) {
          ++LoopDepth[B];
          Members[H][B] = 1;
        }
    }
  }
  for (size_t H = 0; H < N; ++H) {
    if (Members[H].empty())
      continue;
    Loop L;
    L.Header = static_cast<int>(H);
    for (size_t B = 0; B < N; ++B)
      if (Members[H][B])
        L.Blocks.push_back(static_cast<int>(B));
    Loops.push_back(std::move(L));
  }
}

long long CFGInfo::blockFrequency(int Block) const {
  int Depth = std::min(loopDepth(Block), 4);
  long long Freq = 1;
  for (int I = 0; I < Depth; ++I)
    Freq *= 10;
  return Freq;
}

Liveness ipra::blockLiveness(const IRFunction &F, const CFGInfo &CFG) {
  LivenessProblem P(F.Blocks.size(), F.NumVRegs);
  for (const auto &B : F.Blocks) {
    P.Succs[B->Id] = CFG.successors(B->Id);
    for (auto II = B->Instrs.rbegin(); II != B->Instrs.rend(); ++II) {
      if (II->HasDst)
        P.def(B->Id, II->Dst);
      for (unsigned Src : II->Srcs)
        P.use(B->Id, Src);
    }
  }
  return P.solve();
}
