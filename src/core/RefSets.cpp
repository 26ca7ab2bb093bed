//===- RefSets.cpp - L_REF / P_REF / C_REF dataflow -------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/RefSets.h"

#include <algorithm>
#include <functional>
#include <queue>

using namespace ipra;

RefSets::RefSets(const CallGraph &CG, bool ClosedWorld) : CG(CG) {
  // Eligibility (§4.1.2): fits in a register, never aliased; under a
  // partial call graph additionally module-private (§7.2).
  for (const auto &[Name, G] : CG.globals()) {
    if (!G.IsScalar || G.Aliased)
      continue;
    if (!ClosedWorld && !G.IsStatic)
      continue;
    Ids[Name] = static_cast<int>(Names.size());
    Names.push_back(Name);
  }

  size_t N = CG.size();
  size_t E = Names.size();
  LRef.assign(N, DynBitset(E));
  PRef.assign(N, DynBitset(E));
  CRef.assign(N, DynBitset(E));
  Local.assign(N, {});

  for (const CGNode &Node : CG.nodes())
    rebuildLocalRow(Node.Id);

  if (E == 0)
    return;

  // SCC condensation sweep. The call graph numbers SCCs in reverse
  // topological order of the condensation: a cross-SCC edge u -> v
  // guarantees sccId(v) < sccId(u). All members of a cyclic SCC
  // (size > 1, or a self-loop) are mutual ancestors/descendants, so
  // they share one P_REF and one C_REF value which includes the union
  // of the members' own L_REF.
  int NumSccs = CG.numSccs();
  std::vector<DynBitset> LAll(NumSccs, DynBitset(E));
  for (int Scc = 0; Scc < NumSccs; ++Scc)
    for (int Node : CG.sccMembers(Scc))
      LAll[Scc].unionWith(LRef[Node]);

  // P_REF: forward sweep, ancestors first (descending SCC id). The
  // incoming contribution of a cross-SCC edge p -> v is
  // P_REF[p] U L_REF[p]; intra-SCC edges are covered by LAll when the
  // SCC is cyclic and cannot exist otherwise.
  std::vector<DynBitset> SccPRef(NumSccs, DynBitset(E));
  for (int Scc = NumSccs - 1; Scc >= 0; --Scc) {
    DynBitset &In = SccPRef[Scc];
    for (int Node : CG.sccMembers(Scc))
      for (int P : CG.node(Node).Preds)
        if (CG.sccId(P) != Scc) {
          In.unionWith(SccPRef[CG.sccId(P)]);
          In.unionWith(LRef[P]);
        }
    if (CG.sccIsCyclic(Scc))
      In.unionWith(LAll[Scc]);
    for (int Node : CG.sccMembers(Scc))
      PRef[Node] = In;
  }

  // C_REF: backward sweep, descendants first (ascending SCC id).
  std::vector<DynBitset> SccCRef(NumSccs, DynBitset(E));
  for (int Scc = 0; Scc < NumSccs; ++Scc) {
    DynBitset &Out = SccCRef[Scc];
    for (int Node : CG.sccMembers(Scc))
      for (int S : CG.node(Node).Succs)
        if (CG.sccId(S) != Scc) {
          Out.unionWith(SccCRef[CG.sccId(S)]);
          Out.unionWith(LRef[S]);
        }
    if (CG.sccIsCyclic(Scc))
      Out.unionWith(LAll[Scc]);
    for (int Node : CG.sccMembers(Scc))
      CRef[Node] = Out;
  }
}

void RefSets::rebuildLocalRow(int Node) {
  LRef[Node] = DynBitset(Names.size());
  Local[Node].clear();
  for (const GlobalRefSummary &R : CG.node(Node).GlobalRefs) {
    auto It = Ids.find(R.QualName);
    if (It == Ids.end())
      continue;
    LRef[Node].set(It->second);
    // A procedure summary may carry several records for one global;
    // fold them into one entry (the list stays short, linear scan).
    auto &Refs = Local[Node];
    auto Existing =
        std::find_if(Refs.begin(), Refs.end(),
                     [&It](const LocalRef &L) { return L.Id == It->second; });
    if (Existing == Refs.end())
      Refs.push_back(LocalRef{It->second, R.Freq, R.Stores});
    else {
      Existing->Freq += R.Freq;
      Existing->Stores |= R.Stores;
    }
  }
  std::sort(Local[Node].begin(), Local[Node].end(),
            [](const LocalRef &A, const LocalRef &B) { return A.Id < B.Id; });
}

int RefSets::applyDelta(const std::vector<int> &RefChangedNodes,
                        const std::vector<int> &DamageSeedNodes,
                        DynBitset &Touched) {
  size_t E = Names.size();

  // Rebuild the local rows of re-pointed nodes, folding the L_REF
  // difference into the touched set.
  for (int Node : RefChangedNodes) {
    DynBitset Old = LRef[Node];
    rebuildLocalRow(Node);
    Old.xorWith(LRef[Node]);
    Touched.unionWith(Old);
  }
  if (E == 0)
    return 0;

  // The new condensation (the CallGraph was already re-derived).
  int NumSccs = CG.numSccs();
  std::vector<char> Damaged(NumSccs, 0);

  // One directional worklist sweep. The condensation numbers SCCs in
  // reverse topological order, so a max-first pop order processes every
  // ancestor before its descendants (P_REF), and min-first the reverse
  // (C_REF); pushes always target SCCs on the far side of the current
  // pop, so each SCC is finalized exactly once per sweep. Boundary
  // inputs come from the retained per-node rows: an SCC never entering
  // the worklist has unchanged inputs by induction, so its retained
  // value equals the cold value and reading it is exact — this is what
  // makes the damage region minimal *and* the splice byte-identical.
  auto Sweep = [&](bool Forward, std::vector<DynBitset> &Rows) {
    auto Better = [Forward](int A, int B) {
      return Forward ? A < B : A > B;
    };
    std::priority_queue<int, std::vector<int>,
                        std::function<bool(int, int)>>
        Heap(Better);
    std::vector<char> Queued(NumSccs, 0);
    auto Push = [&](int Scc) {
      if (!Queued[Scc]) {
        Queued[Scc] = 1;
        Heap.push(Scc);
      }
    };
    for (int Node : DamageSeedNodes)
      Push(CG.sccId(Node));
    // A changed L_REF row feeds the *neighbor* side's input term
    // (P_REF[v] unions LRef of v's preds) even when the owner's own
    // value is unchanged, so the owner's downstream SCCs seed too.
    for (int Node : RefChangedNodes) {
      Push(CG.sccId(Node));
      const CGNode &N = CG.node(Node);
      for (int O : Forward ? N.Succs : N.Preds)
        Push(CG.sccId(O));
    }

    while (!Heap.empty()) {
      int Scc = Heap.top();
      Heap.pop();
      Damaged[Scc] = 1;
      DynBitset In(E);
      for (int Node : CG.sccMembers(Scc)) {
        const CGNode &N = CG.node(Node);
        for (int O : Forward ? N.Preds : N.Succs)
          if (CG.sccId(O) != Scc) {
            In.unionWith(Rows[O]);
            In.unionWith(LRef[O]);
          }
      }
      if (CG.sccIsCyclic(Scc))
        for (int Node : CG.sccMembers(Scc))
          In.unionWith(LRef[Node]);
      bool Changed = false;
      for (int Node : CG.sccMembers(Scc))
        if (!(Rows[Node] == In)) {
          DynBitset Diff = Rows[Node];
          Diff.xorWith(In);
          Touched.unionWith(Diff);
          Rows[Node] = In;
          Changed = true;
        }
      if (!Changed)
        continue;
      for (int Node : CG.sccMembers(Scc)) {
        const CGNode &N = CG.node(Node);
        for (int O : Forward ? N.Succs : N.Preds)
          if (CG.sccId(O) != Scc)
            Push(CG.sccId(O));
      }
    }
  };

  Sweep(/*Forward=*/true, PRef);
  Sweep(/*Forward=*/false, CRef);

  int Count = 0;
  for (char D : Damaged)
    Count += D;
  return Count;
}

int RefSets::globalId(const std::string &QualName) const {
  auto It = Ids.find(QualName);
  return It == Ids.end() ? -1 : It->second;
}

long long RefSets::refFreq(int Node, int Id) const {
  const std::vector<LocalRef> &Refs = Local[Node];
  auto It = std::lower_bound(Refs.begin(), Refs.end(), Id,
                             [](const LocalRef &L, int Id) {
                               return L.Id < Id;
                             });
  return It != Refs.end() && It->Id == Id ? It->Freq : 0;
}

bool RefSets::refStores(int Node, int Id) const {
  const std::vector<LocalRef> &Refs = Local[Node];
  auto It = std::lower_bound(Refs.begin(), Refs.end(), Id,
                             [](const LocalRef &L, int Id) {
                               return L.Id < Id;
                             });
  return It != Refs.end() && It->Id == Id && It->Stores;
}
