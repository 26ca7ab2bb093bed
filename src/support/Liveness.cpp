//===- Liveness.cpp - Backward may-liveness solver ------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "support/Liveness.h"

#include <numeric>

using namespace ipra;

Liveness LivenessProblem::solve() const {
  size_t N = Succs.size();
  size_t Bits = N ? Gen[0].size() : 0;
  Liveness L{std::vector<DynBitset>(N, DynBitset(Bits)),
             std::vector<DynBitset>(N, DynBitset(Bits))};
  std::vector<std::vector<int>> Preds(N);
  for (size_t B = 0; B < N; ++B)
    for (int S : Succs[B])
      Preds[S].push_back(static_cast<int>(B));

  // Every node starts queued, the highest index on top (successors
  // first for layout-ordered nodes). A node off the stack has an Out
  // that agrees with its successors' In; it returns when one grows.
  std::vector<int> Work(N);
  std::iota(Work.begin(), Work.end(), 0);
  std::vector<bool> Queued(N, true);
  DynBitset In;
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    Queued[B] = false;
    L.Out[B].clear();
    for (int S : Succs[B])
      L.Out[B].unionWith(L.In[S]);
    In = L.Out[B];
    In.subtract(Kill[B]);
    In.unionWith(Gen[B]);
    if (In == L.In[B])
      continue;
    L.In[B] = In;
    for (int P : Preds[B])
      if (!Queued[P]) {
        Queued[P] = true;
        Work.push_back(P);
      }
  }
  return L;
}
