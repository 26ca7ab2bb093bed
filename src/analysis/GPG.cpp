//===- GPG.cpp - Per-procedure generalized points-to summaries ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Phase-1 GPG construction. Per function, a forward abstract
/// interpretation over the CFG in reverse postorder computes, at every
/// program point, the set of *address values* each virtual register,
/// stack slot and recently-written global may hold:
///
///   v ::= AddrG(g) | AddrF(f) | AddrS(s)      addresses
///       | ContG(g, lev)                        loaded from global g
///       | Param(k, lev)                        loaded from parameter k
///       | SiteRet(site, lev)                   loaded from a call result
///       | Unknown
///
/// `lev` counts the loads separating the value from its channel (capped
/// at MaxLev; deeper flows degrade to Unknown). Joins accumulate
/// downward in a finite lattice, so the iteration terminates without
/// requiring monotone transfers, and soundness needs only per-transfer
/// soundness at the converged states (every concrete path is covered by
/// the final abstract transfers along it).
///
/// Strong updates — the precision Andersen's pass cannot express:
///  * virtual registers always (SSA-like kill on redefinition);
///  * non-escaped stack slots (an address that never leaves the
///    function cannot be written behind our back, not even by calls);
///  * a "window" per scalar global between a direct store and the next
///    kill point (any call, or a store through a pointer we cannot
///    resolve), within which loads of the global see the stored set.
///
/// After convergence one emission pass replays the transfers and
/// records the *boundary residue* — stores into globals and through
/// boundary channels, call arguments, returned values, escapes and
/// dereference marks — as GPGUpdate/GPGCallSite records (Summary.h
/// documents the channel grammar). Values that die inside the function
/// leave no residue: that is where the flow-sensitive wins come from.
///
/// Slot escape: the address of a stack slot is serialized as "?" (it is
/// meaningless outside the function), so whenever AddrS(s) reaches a
/// boundary position (stored into a global or through a non-slot
/// pointer, passed as a call argument, returned, or lost to a set-size
/// collapse) slot s is marked escaped: its loads then include Unknown
/// and its stores feed the escape sink. The marking closes over slot
/// contents — escaping s2 with AddrS(s) inside escapes s too.
///
//===----------------------------------------------------------------------===//

#include "analysis/GPG.h"
#include "support/Graph.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <tuple>

using namespace ipra;

namespace {

/// Indirection-level cap: flows needing more than MaxLev loads from
/// their channel degrade to Unknown (the language has no
/// pointer-to-pointer types, so this is never reached by typed code).
constexpr int MaxLev = 2;
/// Per-set size cap; larger sets collapse to {Unknown}.
constexpr size_t MaxSet = 8;

struct Val {
  enum Kind : uint8_t {
    AddrG,   ///< Address of in-module global Name (qualified).
    AddrF,   ///< Address of function Name (qualified).
    AddrS,   ///< Address of stack slot Idx.
    ContG,   ///< Value Lev loads away from global Name's cell.
    Param,   ///< Value Lev loads away from incoming parameter Idx.
    SiteRet, ///< Value Lev loads away from call site Idx's result.
    Unknown,
  };
  Kind K = Unknown;
  std::string Name;
  int Idx = 0;
  int Lev = 0;

  bool operator<(const Val &O) const {
    return std::tie(K, Name, Idx, Lev) <
           std::tie(O.K, O.Name, O.Idx, O.Lev);
  }
  bool operator==(const Val &O) const = default;
};

using ValSet = std::set<Val>;

Val mkUnknown() { return Val{}; }
Val mkAddrG(std::string Q) { return {Val::AddrG, std::move(Q), 0, 0}; }
Val mkAddrF(std::string Q) { return {Val::AddrF, std::move(Q), 0, 0}; }
Val mkAddrS(int S) { return {Val::AddrS, {}, S, 0}; }
Val mkContG(std::string Q, int L) { return {Val::ContG, std::move(Q), 0, L}; }
Val mkParam(int K, int L) { return {Val::Param, {}, K, L}; }
Val mkSiteRet(int Site, int L) { return {Val::SiteRet, {}, Site, L}; }

/// Serialized channel token of a value: (channel, level). Stack-slot
/// addresses and Unknown both serialize as the unknown channel "?".
std::pair<std::string, int> tok(const Val &V) {
  switch (V.K) {
  case Val::AddrG:
    return {"g:" + V.Name, 0};
  case Val::AddrF:
    return {"f:" + V.Name, 0};
  case Val::ContG:
    return {"g:" + V.Name, V.Lev};
  case Val::Param:
    return {"p:" + std::to_string(V.Idx), V.Lev};
  case Val::SiteRet:
    return {"c:" + std::to_string(V.Idx), V.Lev};
  case Val::AddrS:
  case Val::Unknown:
    return {"?", 0};
  }
  return {"?", 0};
}

/// One program point's abstract state.
struct State {
  bool Reached = false;
  /// Address values each vreg may hold; absent key = none (plain int).
  std::map<unsigned, ValSet> VRegs;
  /// Address values each slot's contents may hold; absent key = none.
  std::map<int, ValSet> Slots;
  /// Strong-update windows: present key g means the contents of g are
  /// *exactly* covered by the mapped set (an empty set is meaningful:
  /// g holds no address). Killed at calls and unresolved stores.
  std::map<std::string, ValSet> Window;
};

class FuncGPG {
public:
  FuncGPG(const IRFunction &Fn,
          const std::map<std::string, const IRGlobal *> &Globals,
          const std::map<std::string, const IRFunction *> &Funcs,
          GPGBuildStats &BS)
      : Fn(Fn), Globals(Globals), Funcs(Funcs), BS(BS) {}

  void run(ProcSummary &Out);

private:
  const IRFunction &Fn;
  const std::map<std::string, const IRGlobal *> &Globals;
  const std::map<std::string, const IRFunction *> &Funcs;
  GPGBuildStats &BS;

  std::vector<std::vector<int>> Succ; ///< Cached per-block successors.
  std::vector<int> RPO;               ///< Reachable blocks, reverse postorder.
  std::vector<std::vector<int>> Ords; ///< [block][instr] -> ordinal.
  std::vector<State> In;
  std::set<int> Esc; ///< Escaped slots (monotone across the fixpoint).

  ProcSummary *PS = nullptr; ///< Non-null during the emission pass.
  std::set<std::tuple<std::string, int, std::string, int, int>> Seen;

  void computeOrder();
  bool joinInto(State &Dst, const State &Src);
  /// Unions Src into D, applying the size cap (a collapse escapes any
  /// slot addresses it swallows). Returns true when D changed.
  bool unionCap(ValSet &D, const ValSet &S, State &St);
  ValSet capped(ValSet V, State &St);
  /// Marks every AddrS(s) in V escaped, closing over slot contents.
  void escapeSlotsIn(const ValSet &V, State &St);
  void escapeSlot(int S, State &St);
  ValSet regOf(const State &St, unsigned R) const;
  void setReg(State &St, unsigned R, ValSet V);
  ValSet slotLoad(State &St, int Slot);
  void transfer(State &St, const IRInstr &Ins, int Ord);

  // Emission (no-ops while PS is null).
  void gpu(const std::string &Dst, int DLev, const Val &Src, int Ord);
  void gpuAll(const std::string &Dst, int DLev, const ValSet &V, int Ord);
  void derefMark(const Val &Ptr, int Ord);
};

void FuncGPG::computeOrder() {
  size_t N = Fn.Blocks.size();
  Succ.assign(N, {});
  for (size_t B = 0; B < N; ++B)
    if (Fn.Blocks[B]->hasTerminator())
      Succ[B] = Fn.Blocks[B]->successors();

  auto SuccOf = [this](int B) -> const std::vector<int> & { return Succ[B]; };
  RPO = reversePostOrder(N, {0}, SuccOf).Rpo;

  Ords.assign(N, {});
  int Ord = 0;
  for (int B : RPO) {
    Ords[B].resize(Fn.Blocks[B]->Instrs.size());
    for (size_t I = 0; I < Ords[B].size(); ++I)
      Ords[B][I] = Ord++;
  }
}

void FuncGPG::escapeSlot(int S, State &St) {
  if (!Esc.insert(S).second)
    return;
  auto It = St.Slots.find(S);
  if (It != St.Slots.end()) {
    ValSet Copy = It->second; // escapeSlotsIn may touch St.Slots.
    escapeSlotsIn(Copy, St);
  }
}

void FuncGPG::escapeSlotsIn(const ValSet &V, State &St) {
  for (const Val &X : V)
    if (X.K == Val::AddrS)
      escapeSlot(X.Idx, St);
}

bool FuncGPG::unionCap(ValSet &D, const ValSet &S, State &St) {
  bool Changed = false;
  for (const Val &X : S)
    Changed |= D.insert(X).second;
  if (D.size() > MaxSet) {
    escapeSlotsIn(D, St);
    D.clear();
    D.insert(mkUnknown());
    Changed = true;
  }
  return Changed;
}

ValSet FuncGPG::capped(ValSet V, State &St) {
  if (V.size() > MaxSet) {
    escapeSlotsIn(V, St);
    V.clear();
    V.insert(mkUnknown());
  }
  return V;
}

ValSet FuncGPG::regOf(const State &St, unsigned R) const {
  auto It = St.VRegs.find(R);
  return It != St.VRegs.end() ? It->second : ValSet{};
}

void FuncGPG::setReg(State &St, unsigned R, ValSet V) {
  if (V.empty())
    St.VRegs.erase(R);
  else
    St.VRegs[R] = std::move(V);
}

ValSet FuncGPG::slotLoad(State &St, int Slot) {
  ValSet V;
  auto It = St.Slots.find(Slot);
  if (It != St.Slots.end())
    V = It->second;
  if (Esc.count(Slot))
    V.insert(mkUnknown()); // A callee holding the address may have written.
  return V;
}

bool FuncGPG::joinInto(State &Dst, const State &Src) {
  if (!Dst.Reached) {
    Dst = Src;
    Dst.Reached = true;
    return true;
  }
  bool Changed = false;
  for (const auto &[R, V] : Src.VRegs)
    Changed |= unionCap(Dst.VRegs[R], V, Dst);
  for (const auto &[S, V] : Src.Slots)
    Changed |= unionCap(Dst.Slots[S], V, Dst);
  // Windows: knowledge survives only where both paths agree a window
  // is open; the surviving set is the union.
  for (auto It = Dst.Window.begin(); It != Dst.Window.end();) {
    auto SI = Src.Window.find(It->first);
    if (SI == Src.Window.end()) {
      It = Dst.Window.erase(It);
      Changed = true;
    } else {
      Changed |= unionCap(It->second, SI->second, Dst);
      ++It;
    }
  }
  return Changed;
}

void FuncGPG::gpu(const std::string &Dst, int DLev, const Val &Src, int Ord) {
  if (!PS)
    return;
  auto [STok, SLev] = tok(Src);
  if (!Seen.insert({Dst, DLev, STok, SLev, Ord}).second)
    return;
  GPGUpdate U;
  U.Dst = Dst;
  U.DstLev = DLev;
  U.Src = std::move(STok);
  U.SrcLev = SLev;
  U.Ord = Ord;
  PS->GPG.push_back(std::move(U));
  ++BS.Updates;
}

void FuncGPG::gpuAll(const std::string &Dst, int DLev, const ValSet &V,
                     int Ord) {
  for (const Val &X : V)
    gpu(Dst, DLev, X, Ord);
}

void FuncGPG::derefMark(const Val &Ptr, int Ord) {
  // "?" marks carry no information the composer uses (a deref through
  // Unknown does not demote a verdict — PointsTo.cpp gives the
  // argument) and slot/function addresses are not global derefs.
  switch (Ptr.K) {
  case Val::AddrG:
  case Val::ContG:
  case Val::Param:
  case Val::SiteRet:
    gpu("d", 1, Ptr, Ord);
    break;
  default:
    break;
  }
}

void FuncGPG::transfer(State &St, const IRInstr &Ins, int Ord) {
  auto qualOfGlobal = [&](const std::string &Sym) {
    return Globals.at(Sym)->qualifiedName();
  };
  switch (Ins.Op) {
  case IROp::Const:
    St.VRegs.erase(Ins.Dst);
    break;
  case IROp::Copy:
  case IROp::Neg:
  case IROp::Not:
    setReg(St, Ins.Dst, regOf(St, Ins.Srcs[0]));
    break;
  case IROp::Bin: {
    // Pointer arithmetic stays within the pointed-to object.
    ValSet V = regOf(St, Ins.Srcs[0]);
    unionCap(V, regOf(St, Ins.Srcs[1]), St);
    setReg(St, Ins.Dst, std::move(V));
    break;
  }
  case IROp::LdG: {
    ValSet V;
    if (Globals.count(Ins.Sym)) {
      std::string Q = qualOfGlobal(Ins.Sym);
      auto W = St.Window.find(Q);
      if (W != St.Window.end())
        V = W->second;
      else
        V.insert(mkContG(std::move(Q), 1));
    } else {
      V.insert(mkUnknown()); // Extern global: contents unknown.
    }
    setReg(St, Ins.Dst, std::move(V));
    break;
  }
  case IROp::StG: {
    ValSet V = regOf(St, Ins.Srcs[0]);
    escapeSlotsIn(V, St);
    if (Globals.count(Ins.Sym)) {
      std::string Q = qualOfGlobal(Ins.Sym);
      gpuAll("g:" + Q, 1, V, Ord);
      St.Window[Q] = std::move(V); // Strong: direct store, exact set.
    } else {
      gpuAll("e", 1, V, Ord); // Extern global: the value escapes.
    }
    break;
  }
  case IROp::LdSlot:
    setReg(St, Ins.Dst, slotLoad(St, Ins.Slot));
    break;
  case IROp::StSlot: {
    ValSet V = regOf(St, Ins.Srcs[0]);
    bool Escaped = Esc.count(Ins.Slot) != 0;
    if (Escaped) {
      escapeSlotsIn(V, St);
      gpuAll("e", 1, V, Ord); // Contents observable via the leaked address.
    }
    if (Escaped || Fn.Slots[Ins.Slot].IsArray) {
      unionCap(St.Slots[Ins.Slot], V, St); // Weak.
      if (St.Slots[Ins.Slot].empty())
        St.Slots.erase(Ins.Slot);
    } else if (V.empty()) {
      St.Slots.erase(Ins.Slot); // Strong.
    } else {
      St.Slots[Ins.Slot] = std::move(V); // Strong.
    }
    break;
  }
  case IROp::LdElem: {
    ValSet V;
    if (!Ins.Sym.empty()) {
      if (Globals.count(Ins.Sym))
        V.insert(mkContG(qualOfGlobal(Ins.Sym), 1));
      else
        V.insert(mkUnknown());
    } else {
      V = slotLoad(St, Ins.Slot);
    }
    setReg(St, Ins.Dst, std::move(V));
    break;
  }
  case IROp::StElem: {
    ValSet V = regOf(St, Ins.Srcs[1]);
    if (!Ins.Sym.empty()) {
      escapeSlotsIn(V, St); // Stored into a global: the address leaks.
      if (Globals.count(Ins.Sym)) {
        std::string Q = qualOfGlobal(Ins.Sym);
        gpuAll("g:" + Q, 1, V, Ord);
        St.Window.erase(Q); // Element stores are always weak.
      } else {
        gpuAll("e", 1, V, Ord);
      }
    } else {
      if (Esc.count(Ins.Slot)) {
        escapeSlotsIn(V, St);
        gpuAll("e", 1, V, Ord);
      }
      unionCap(St.Slots[Ins.Slot], V, St); // Arrays: always weak.
      if (St.Slots[Ins.Slot].empty())
        St.Slots.erase(Ins.Slot);
    }
    break;
  }
  case IROp::LdPtr: {
    ValSet P = regOf(St, Ins.Srcs[0]);
    ValSet R;
    for (const Val &T : P) {
      derefMark(T, Ord);
      switch (T.K) {
      case Val::AddrG: {
        auto W = St.Window.find(T.Name);
        if (W != St.Window.end())
          unionCap(R, W->second, St);
        else
          R.insert(mkContG(T.Name, 1));
        break;
      }
      case Val::AddrS:
        unionCap(R, slotLoad(St, T.Idx), St);
        break;
      case Val::AddrF:
        break; // Dereferencing a function address is meaningless.
      case Val::ContG:
        R.insert(T.Lev < MaxLev ? mkContG(T.Name, T.Lev + 1) : mkUnknown());
        break;
      case Val::Param:
        R.insert(T.Lev < MaxLev ? mkParam(T.Idx, T.Lev + 1) : mkUnknown());
        break;
      case Val::SiteRet:
        R.insert(T.Lev < MaxLev ? mkSiteRet(T.Idx, T.Lev + 1) : mkUnknown());
        break;
      case Val::Unknown:
        R.insert(mkUnknown());
        break;
      }
    }
    setReg(St, Ins.Dst, capped(std::move(R), St));
    break;
  }
  case IROp::StPtr: {
    ValSet P = regOf(St, Ins.Srcs[0]);
    ValSet V = regOf(St, Ins.Srcs[1]);
    bool Strong = P.size() == 1;
    for (const Val &T : P) {
      derefMark(T, Ord);
      switch (T.K) {
      case Val::AddrG: {
        escapeSlotsIn(V, St); // Stored into a global: the address leaks.
        gpuAll("g:" + T.Name, 1, V, Ord);
        if (Strong) {
          St.Window[T.Name] = V; // Definitely &g: as strong as StG.
        } else {
          auto W = St.Window.find(T.Name);
          if (W != St.Window.end())
            unionCap(W->second, V, St); // May-write widens the window.
        }
        break;
      }
      case Val::AddrS: {
        int S = T.Idx;
        if (Esc.count(S)) {
          escapeSlotsIn(V, St);
          gpuAll("e", 1, V, Ord);
        }
        if (Strong && !Esc.count(S) && !Fn.Slots[S].IsArray) {
          if (V.empty())
            St.Slots.erase(S);
          else
            St.Slots[S] = V;
        } else {
          unionCap(St.Slots[S], V, St);
          if (St.Slots[S].empty())
            St.Slots.erase(S);
        }
        break;
      }
      case Val::AddrF:
        break; // Storing through a function address is meaningless.
      case Val::ContG:
      case Val::Param:
      case Val::SiteRet: {
        // Store through a boundary channel: the composer resolves the
        // pointer caller-side. May hit any window'd global.
        escapeSlotsIn(V, St);
        if (T.Lev + 1 <= MaxLev) {
          auto [Chan, Lev] = tok(T);
          gpuAll(Chan, Lev + 1, V, Ord);
        } else {
          gpuAll("e", 1, V, Ord);
        }
        St.Window.clear();
        break;
      }
      case Val::Unknown:
        escapeSlotsIn(V, St);
        gpuAll("e", 1, V, Ord);
        St.Window.clear(); // May write any escaped/exported global.
        break;
      }
    }
    break;
  }
  case IROp::AddrG: {
    ValSet V;
    auto GI = Globals.find(Ins.Sym);
    if (GI != Globals.end()) {
      V.insert(mkAddrG(GI->second->qualifiedName()));
    } else {
      auto FI = Funcs.find(Ins.Sym);
      // Extern functions are exported elsewhere: plain name = qualified.
      V.insert(mkAddrF(FI != Funcs.end() ? FI->second->qualifiedName()
                                         : Ins.Sym));
    }
    setReg(St, Ins.Dst, std::move(V));
    break;
  }
  case IROp::AddrSlot: {
    ValSet V;
    V.insert(mkAddrS(Ins.Slot));
    setReg(St, Ins.Dst, std::move(V));
    break;
  }
  case IROp::Call:
  case IROp::CallInd: {
    size_t ArgBase = Ins.Op == IROp::CallInd ? 1 : 0;
    for (size_t A = ArgBase; A < Ins.Srcs.size(); ++A) {
      ValSet V = regOf(St, Ins.Srcs[A]);
      // The callee may stash the address and write through it after we
      // resume — slot tracking cannot see that, so the slot escapes.
      escapeSlotsIn(V, St);
      gpuAll("a:" + std::to_string(Ord) + ":" + std::to_string(A - ArgBase),
             1, V, Ord);
    }
    if (PS) {
      GPGCallSite Site;
      Site.Ord = Ord;
      if (Ins.Op == IROp::Call) {
        auto FI = Funcs.find(Ins.Sym);
        Site.Callee = FI != Funcs.end() ? FI->second->qualifiedName()
                                        : Ins.Sym;
      } else {
        std::set<std::string> Targets;
        for (const Val &T : regOf(St, Ins.Srcs[0])) {
          auto [Chan, Lev] = tok(T);
          Targets.insert(Chan + "^" + std::to_string(Lev));
        }
        Site.Targets.assign(Targets.begin(), Targets.end());
      }
      PS->GPGSites.push_back(std::move(Site));
      ++BS.CallSites;
    }
    if (Ins.HasDst) {
      ValSet V;
      V.insert(mkSiteRet(Ord, 0));
      setReg(St, Ins.Dst, std::move(V));
    }
    // Any callee may store to any global: every window closes. Slot
    // contents survive — a non-escaped slot's address is unreachable
    // from the callee.
    St.Window.clear();
    break;
  }
  case IROp::Ret:
    if (!Ins.Srcs.empty()) {
      ValSet V = regOf(St, Ins.Srcs[0]);
      escapeSlotsIn(V, St); // The caller may do anything with it.
      gpuAll("r", 1, V, Ord);
    }
    break;
  case IROp::Print:
  case IROp::PrintC:
  case IROp::Br:
  case IROp::CondBr:
    break;
  }
}

void FuncGPG::run(ProcSummary &Out) {
  if (Fn.Blocks.empty())
    return;
  computeOrder();

  In.assign(Fn.Blocks.size(), State{});
  State &Entry = In[0];
  Entry.Reached = true;
  for (unsigned K = 0; K < Fn.NumParams; ++K)
    Entry.VRegs[K] = {mkParam(static_cast<int>(K), 0)};

  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++BS.Iterations;
    size_t EscBefore = Esc.size();
    for (int B : RPO) {
      if (!In[B].Reached)
        continue;
      State Cur = In[B];
      const auto &Instrs = Fn.Blocks[B]->Instrs;
      for (size_t I = 0; I < Instrs.size(); ++I)
        transfer(Cur, Instrs[I], Ords[B][I]);
      for (int S : Succ[B])
        Changed |= joinInto(In[S], Cur);
    }
    Changed |= Esc.size() != EscBefore;
  }

  // Emission: replay the converged transfers once, recording residue.
  PS = &Out;
  for (int B : RPO) {
    if (!In[B].Reached)
      continue;
    State Cur = In[B];
    const auto &Instrs = Fn.Blocks[B]->Instrs;
    for (size_t I = 0; I < Instrs.size(); ++I)
      transfer(Cur, Instrs[I], Ords[B][I]);
  }
  PS = nullptr;
}

} // namespace

GPGBuildStats ipra::buildGPGSummary(const IRModule &M, ModuleSummary &S) {
  GPGBuildStats Stats;

  std::map<std::string, const IRGlobal *> Globals;
  for (const IRGlobal &G : M.Globals)
    Globals[G.Name] = &G;
  std::map<std::string, const IRFunction *> Funcs;
  for (const auto &F : M.Functions)
    Funcs[F->Name] = F.get();

  std::map<std::string, ProcSummary *> ProcByQual;
  for (ProcSummary &PS : S.Procs) {
    // Every proc is marked, including the synthetic ":.data" pseudo-proc
    // (its only points-to effect, function-address initializers, rides
    // in GlobalSummary::FuncInit): the analyzer composes GPGs only when
    // the whole program has them.
    PS.HasGPG = true;
    PS.GPG.clear();
    PS.GPGSites.clear();
    ProcByQual[PS.QualName] = &PS;
  }

  for (const auto &F : M.Functions) {
    auto It = ProcByQual.find(F->qualifiedName());
    if (It == ProcByQual.end())
      continue;
    FuncGPG A(*F, Globals, Funcs, Stats);
    A.run(*It->second);
  }
  return Stats;
}
