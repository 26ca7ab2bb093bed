//===- CFG.cpp - Control-flow graph analyses ------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"

#include <algorithm>
#include <cassert>

using namespace ipra;

CFGInfo::CFGInfo(const IRFunction &F) {
  size_t N = F.Blocks.size();
  Preds.resize(N);
  Succs.resize(N);
  Reachable.assign(N, false);
  RPOIndex.assign(N, -1);

  for (const auto &B : F.Blocks)
    Succs[B->Id] = B->successors();

  // Depth-first post-order from entry.
  std::vector<int> PostOrder;
  PostOrder.reserve(N);
  std::vector<int> Stack;
  std::vector<uint8_t> State(N, 0); // 0=unvisited, 1=on stack, 2=done
  Stack.push_back(0);
  // Iterative DFS computing post-order.
  std::vector<size_t> NextChild(N, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    int B = Stack.back();
    if (NextChild[B] < Succs[B].size()) {
      int S = Succs[B][NextChild[B]++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back(S);
      }
    } else {
      State[B] = 2;
      PostOrder.push_back(B);
      Stack.pop_back();
    }
  }

  RPO.assign(PostOrder.rbegin(), PostOrder.rend());
  for (size_t I = 0; I < RPO.size(); ++I) {
    RPOIndex[RPO[I]] = static_cast<int>(I);
    Reachable[RPO[I]] = true;
  }

  // Only count predecessors that are reachable.
  for (int B : RPO)
    for (int S : Succs[B])
      Preds[S].push_back(B);
}

void CFGInfo::computeLoops() const {
  if (HaveLoops)
    return;
  HaveLoops = true; // Before computeLoopDepths, which asks dominates.
  IDom.assign(Preds.size(), -1);
  LoopDepth.assign(Preds.size(), 0);
  computeDominators();
  computeLoopDepths();
}

// Cooper-Harvey-Kennedy iterative dominator algorithm.
void CFGInfo::computeDominators() const {
  if (RPO.empty())
    return;
  IDom[RPO[0]] = RPO[0]; // Temporarily self; reset to -1 afterwards.

  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (RPOIndex[A] > RPOIndex[B])
        A = IDom[A];
      while (RPOIndex[B] > RPOIndex[A])
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < RPO.size(); ++I) {
      int B = RPO[I];
      int NewIDom = -1;
      for (int P : Preds[B]) {
        if (IDom[P] == -1)
          continue; // Not yet processed.
        NewIDom = NewIDom == -1 ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != -1 && IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }
  IDom[RPO[0]] = -1;
}

bool CFGInfo::dominates(int A, int B) const {
  computeLoops();
  if (!Reachable[A] || !Reachable[B])
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
  for (int T : RPO) {
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
