//===- Graph.h - Reverse postorder, dominators and SCCs --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one copy of each graph algorithm the compiler runs on its CFGs
/// (loops, the GPG builder's block order) and on the call graph
/// (P_REF/C_REF sweep the SCC condensation, §4.1; clusters are rooted
/// at dominators, §4.2; GPG composition goes bottom-up over the SCCs).
/// Nodes are 0..N-1, and each routine reads a node's successor (or
/// predecessor) list through an accessor, so no caller copies its graph.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_GRAPH_H
#define IPRA_SUPPORT_GRAPH_H

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace ipra {

/// The nodes a depth-first search reached, in reverse postorder.
struct DfsOrder {
  std::vector<int> Rpo;      ///< Reached nodes, reverse postorder.
  std::vector<int> RpoIndex; ///< Position in Rpo; -1 if unreached.

  bool reached(int Node) const { return RpoIndex[Node] >= 0; }
};

/// An adjacency accessor hands out a node's list itself, not a copy.
template <typename F>
concept AdjacencyFn = std::is_reference_v<std::invoke_result_t<F &, int>>;

/// Iterative depth-first search of nodes 0..\p N-1 from each of
/// \p Starts in order (a start an earlier search reached adds nothing),
/// taking successors in list order.
template <AdjacencyFn SuccsFn>
DfsOrder reversePostOrder(size_t N, const std::vector<int> &Starts,
                          SuccsFn &&Succs) {
  constexpr int Unvisited = -1, OnPath = -2;
  DfsOrder O;
  O.Rpo.reserve(N);
  O.RpoIndex.assign(N, Unvisited); // Visit marks until the final pass.
  std::vector<std::pair<int, size_t>> Stack; // (node, next successor)
  for (int Start : Starts) {
    if (O.RpoIndex[Start] != Unvisited)
      continue;
    O.RpoIndex[Start] = OnPath;
    Stack.emplace_back(Start, 0);
    while (!Stack.empty()) {
      auto &[Node, Next] = Stack.back();
      const auto &Out = Succs(Node);
      if (Next < Out.size()) {
        int S = Out[Next++];
        if (O.RpoIndex[S] == Unvisited) {
          O.RpoIndex[S] = OnPath;
          Stack.emplace_back(S, 0);
        }
      } else {
        O.Rpo.push_back(Node); // Postorder for now.
        Stack.pop_back();
      }
    }
  }
  std::reverse(O.Rpo.begin(), O.Rpo.end());
  for (size_t I = 0; I < O.Rpo.size(); ++I)
    O.RpoIndex[O.Rpo[I]] = static_cast<int>(I);
  return O;
}

/// Immediate dominators by Cooper, Harvey and Kennedy's iterative
/// algorithm, with a virtual root above every start. A start's idom is
/// -1 (the root) and a node \p Order did not reach gets -2. \p Order
/// must come from reversePostOrder over \p Starts.
template <AdjacencyFn PredsFn>
std::vector<int> immediateDominators(const DfsOrder &Order,
                                     const std::vector<int> &Starts,
                                     PredsFn &&Preds) {
  constexpr int Root = -1, Unset = -2;
  std::vector<int> IDom(Order.RpoIndex.size(), Unset);
  for (int S : Starts)
    IDom[S] = Root;

  auto Pos = [&Order](int Node) {
    return Node == Root ? -1 : Order.RpoIndex[Node];
  };
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (Pos(A) > Pos(B))
        A = IDom[A];
      while (Pos(B) > Pos(A))
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int B : Order.Rpo) {
      // A start, or a node only the root dominates: either way final,
      // since estimates only climb toward the root.
      if (IDom[B] == Root)
        continue;
      int NewIDom = Unset;
      for (int P : Preds(B)) {
        if (IDom[P] == Unset)
          continue; // Unreached, or not processed yet.
        NewIDom = NewIDom == Unset ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != Unset && IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }
  return IDom;
}

/// Strongly connected components of nodes 0..\p N-1 by an iterative
/// Tarjan, with roots taken in index order and successors in list order.
/// Calls \p Emit(const std::vector<int> &Members) once per component,
/// members ascending. Components come callee-first: every edge leaving a
/// component enters one emitted earlier.
template <AdjacencyFn SuccsFn, typename EmitFn>
void forEachScc(size_t N, SuccsFn &&Succs, EmitFn &&Emit) {
  std::vector<int> Index(N, -1), Low(N, 0);
  std::vector<char> OnStack(N, 0);
  std::vector<int> Stack, Members;
  std::vector<std::pair<int, size_t>> Frames; // (node, next successor)
  int NextIndex = 0;
  auto Enter = [&](int V) {
    Index[V] = Low[V] = NextIndex++;
    Stack.push_back(V);
    OnStack[V] = 1;
    Frames.emplace_back(V, 0);
  };

  for (size_t Root = 0; Root < N; ++Root) {
    if (Index[Root] >= 0)
      continue;
    Enter(static_cast<int>(Root));
    while (!Frames.empty()) {
      auto &[V, Next] = Frames.back();
      const auto &Out = Succs(V);
      if (Next < Out.size()) {
        int W = Out[Next++];
        if (Index[W] < 0)
          Enter(W);
        else if (OnStack[W])
          Low[V] = std::min(Low[V], Index[W]);
        continue;
      }
      int Done = V;
      Frames.pop_back();
      if (Low[Done] == Index[Done]) {
        Members.clear();
        int W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = 0;
          Members.push_back(W);
        } while (W != Done);
        std::sort(Members.begin(), Members.end());
        Emit(static_cast<const std::vector<int> &>(Members));
      }
      if (!Frames.empty()) {
        int Parent = Frames.back().first;
        Low[Parent] = std::min(Low[Parent], Low[Done]);
      }
    }
  }
}

} // namespace ipra

#endif // IPRA_SUPPORT_GRAPH_H
