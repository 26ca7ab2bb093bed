//===- GPGCompose.cpp - Bottom-up composition of GPG summaries ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// Composition model. Whole-program tables, all monotone:
///
///   Contents[g]   address values global g's cell may hold
///   ParamIn[f][k] address values parameter k of f may receive,
///                 joined over every calling context (plus an
///                 "unknown caller" flag for escaped/exported procs)
///   RetAbs[f]     f's return abstraction: concrete values plus
///                 symbolic Param(k,lev) entries that are substituted
///                 with the actual arguments at each call site — the
///                 context-sensitive channel
///   GlobalDeref   globals some resolved in-module deref may reach
///   GlobalEscape  globals whose address may leave the program's view
///   EscapedFuncs  functions callable from unknown code
///
/// Each fixpoint round walks every procedure's residue in flow (Ord)
/// order — procedures visited bottom-up over the Tarjan SCC
/// condensation of the direct-call graph, so most callee facts exist
/// before their callers read them and non-recursive programs converge
/// in two rounds (the second proves stability). Channel tokens resolve
/// against the tables in the owning procedure's context; "c:<site>"
/// resolution inlines the callee's return abstraction, substituting
/// parameter channels with the site's argument tokens (recursive chains
/// are cut by a visited set — a value defined only through a cycle has
/// an empty least fixpoint). After convergence, verdicts mirror the
/// Andersen rules (escaped > dereffed > refuted; a deref through
/// Unknown demotes nothing — PointsTo.cpp gives the argument) and are
/// merged into the summaries by precision maximum.
///
//===----------------------------------------------------------------------===//

#include "analysis/GPGCompose.h"

#include "support/Graph.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>
#include <string>
#include <tuple>

using namespace ipra;

namespace {

/// Resolution depth cap: channel levels beyond this degrade to Unknown
/// (unreachable from typed programs; guards hand-written summaries).
constexpr int MaxLev = 4;

/// A concrete composed value: the address of a global, the address of
/// a function, or Unknown.
struct CVal {
  enum Kind : uint8_t { AddrG, AddrF, Unknown } K = Unknown;
  std::string Name; ///< Qualified.

  bool operator<(const CVal &O) const {
    return std::tie(K, Name) < std::tie(O.K, O.Name);
  }
  bool operator==(const CVal &O) const = default;
};
using CSet = std::set<CVal>;

CVal cUnknown() { return {}; }
CVal cAddrG(std::string Q) { return {CVal::AddrG, std::move(Q)}; }
CVal cAddrF(std::string Q) { return {CVal::AddrF, std::move(Q)}; }

struct Tok {
  std::string Chan;
  int Lev = 0;
};

/// A procedure's return abstraction.
struct RetVal {
  CSet Conc;
  std::set<std::pair<int, int>> Params; ///< Symbolic (param, lev).
};

/// Pre-indexed residue of one procedure.
struct PProc {
  const ProcSummary *PS = nullptr;
  /// ord -> param index -> argument tokens (from "a:<ord>:<k>").
  std::map<int, std::map<int, std::vector<Tok>>> SiteArgs;
  /// ord -> site record.
  std::map<int, const GPGCallSite *> Sites;
  /// Store records ("g:"/"p:"/"c:" destinations), flow order.
  std::vector<const GPGUpdate *> Stores;
  std::vector<Tok> Escapes; ///< "e" record sources.
  std::vector<Tok> Derefs;  ///< "d" record sources.
  std::vector<Tok> Rets;    ///< "r" record sources.
};

class Composer {
public:
  Composer(std::vector<ModuleSummary> &Summaries, bool ClosedWorld,
           GPGComposeStats &CS)
      : Summaries(Summaries), ClosedWorld(ClosedWorld), CS(CS) {}

  void run();

private:
  std::vector<ModuleSummary> &Summaries;
  bool ClosedWorld;
  GPGComposeStats &CS;

  std::map<std::string, PProc> Procs; ///< Qual -> indexed residue.
  std::vector<std::string> Order;     ///< Bottom-up SCC order.

  // Whole-program tables.
  std::map<std::string, CSet> Contents;
  std::map<std::string, std::map<int, CSet>> ParamIn;
  std::map<std::string, bool> ParamsUnknown;
  std::map<std::string, RetVal> RetAbs;
  std::set<std::string> GlobalDeref;
  std::set<std::string> GlobalEscape;
  std::set<std::string> EscapedFuncs;
  std::set<std::tuple<std::string, int, std::string>> SeenContexts;

  bool Changed = false;

  void index();
  void orderBottomUp();
  void seed();
  void round();
  void closure();
  void applyVerdicts();
  void applyIndirect();

  void escapeVal(const CVal &V);
  void escapeSet(const CSet &S);
  void addContents(const std::string &G, const CSet &S);
  CSet contentsAt(CSet S, int N) const;
  using Visited = std::set<std::tuple<const PProc *, std::string, int>>;
  CSet resolve(const PProc &P, const std::string &Chan, int Lev,
               Visited &Vis) const;
  CSet resolveTok(const PProc &P, const Tok &T) const {
    Visited Vis;
    return resolve(P, T.Chan, T.Lev, Vis);
  }
  /// Return-channel resolution: parameter channels stay symbolic.
  RetVal resolveSym(const PProc &P, const std::string &Chan, int Lev,
                    Visited &Vis) const;
  /// Resolved callee values of one site: function quals, plus a flag
  /// for any non-function or unknown value.
  void siteTargets(const PProc &P, const GPGCallSite &Site,
                   std::set<std::string> &Funcs, bool &Unknown) const;
  void bindSite(PProc &P, int Ord, const GPGCallSite &Site);
};

//===----------------------------------------------------------------------===//
// Indexing and ordering.
//===----------------------------------------------------------------------===//

void Composer::index() {
  for (const ModuleSummary &M : Summaries) {
    for (const ProcSummary &PS : M.Procs) {
      PProc &P = Procs[PS.QualName];
      P.PS = &PS;
      for (const GPGCallSite &S : PS.GPGSites)
        P.Sites[S.Ord] = &S;
      for (const GPGUpdate &U : PS.GPG) {
        if (U.Dst == "e") {
          P.Escapes.push_back({U.Src, U.SrcLev});
        } else if (U.Dst == "d") {
          P.Derefs.push_back({U.Src, U.SrcLev});
        } else if (U.Dst == "r") {
          P.Rets.push_back({U.Src, U.SrcLev});
        } else if (U.Dst.rfind("a:", 0) == 0) {
          size_t Colon = U.Dst.find(':', 2);
          int Ord = 0, K = 0;
          if (Colon != std::string::npos &&
              parseInt(U.Dst.substr(2, Colon - 2), Ord) &&
              parseInt(U.Dst.substr(Colon + 1), K))
            P.SiteArgs[Ord][K].push_back({U.Src, U.SrcLev});
        } else {
          P.Stores.push_back(&U); // "g:" / "p:" / "c:" destinations.
        }
      }
    }
  }
}

void Composer::orderBottomUp() {
  // Tarjan over the direct-call graph (sorted adjacency), emitting SCCs
  // bottom-up: every callee's component completes before its callers'.
  std::vector<std::string> Names;
  std::map<std::string, int> Id;
  for (const auto &[Qual, P] : Procs) {
    Id[Qual] = static_cast<int>(Names.size());
    Names.push_back(Qual);
  }
  std::vector<std::vector<int>> Adj(Names.size());
  for (const auto &[Qual, P] : Procs) {
    std::set<int> Out;
    for (const auto &[Ord, Site] : P.Sites)
      if (!Site->Callee.empty()) {
        auto It = Id.find(Site->Callee);
        if (It != Id.end())
          Out.insert(It->second);
      }
    Adj[Id[Qual]].assign(Out.begin(), Out.end());
  }

  forEachScc(Names.size(),
             [&Adj](int V) -> const std::vector<int> & { return Adj[V]; },
             [this, &Names](const std::vector<int> &Members) {
               for (int W : Members)
                 Order.push_back(Names[W]);
             });
}

//===----------------------------------------------------------------------===//
// Tables.
//===----------------------------------------------------------------------===//

void Composer::escapeVal(const CVal &V) {
  if (V.K == CVal::AddrG)
    Changed |= GlobalEscape.insert(V.Name).second;
  else if (V.K == CVal::AddrF)
    Changed |= EscapedFuncs.insert(V.Name).second;
}

void Composer::escapeSet(const CSet &S) {
  for (const CVal &V : S)
    escapeVal(V);
}

void Composer::addContents(const std::string &G, const CSet &S) {
  CSet &D = Contents[G];
  for (const CVal &V : S)
    Changed |= D.insert(V).second;
}

CSet Composer::contentsAt(CSet S, int N) const {
  for (int I = 0; I < N; ++I) {
    CSet Next;
    for (const CVal &V : S) {
      if (V.K == CVal::AddrG) {
        auto It = Contents.find(V.Name);
        if (It != Contents.end())
          Next.insert(It->second.begin(), It->second.end());
      } else if (V.K == CVal::Unknown) {
        Next.insert(cUnknown());
      }
      // Loading through a function address yields nothing.
    }
    S = std::move(Next);
  }
  return S;
}

CSet Composer::resolve(const PProc &P, const std::string &Chan, int Lev,
                       Visited &Vis) const {
  if (Lev > MaxLev)
    return {cUnknown()};
  if (Chan == "?")
    return {cUnknown()};
  if (!Vis.insert({&P, Chan, Lev}).second)
    return {}; // Pure cycle: least fixpoint is empty.
  if (Chan.rfind("g:", 0) == 0)
    return contentsAt({cAddrG(Chan.substr(2))}, Lev);
  if (Chan.rfind("f:", 0) == 0)
    return contentsAt({cAddrF(Chan.substr(2))}, Lev);
  if (Chan.rfind("p:", 0) == 0) {
    int K = 0;
    if (!parseInt(Chan.substr(2), K))
      return {cUnknown()};
    CSet Base;
    auto PI = ParamIn.find(P.PS->QualName);
    if (PI != ParamIn.end()) {
      auto KI = PI->second.find(K);
      if (KI != PI->second.end())
        Base = KI->second;
    }
    auto PU = ParamsUnknown.find(P.PS->QualName);
    if (PU != ParamsUnknown.end() && PU->second)
      Base.insert(cUnknown());
    return contentsAt(std::move(Base), Lev);
  }
  if (Chan.rfind("c:", 0) == 0) {
    int Ord = 0;
    if (!parseInt(Chan.substr(2), Ord))
      return {cUnknown()};
    auto SI = P.Sites.find(Ord);
    if (SI == P.Sites.end())
      return {cUnknown()};
    std::set<std::string> Callees;
    bool Unknown = false;
    siteTargets(P, *SI->second, Callees, Unknown);
    CSet Out;
    if (Unknown)
      Out.insert(cUnknown());
    auto ArgsIt = P.SiteArgs.find(Ord);
    for (const std::string &C : Callees) {
      auto CI = Procs.find(C);
      if (CI == Procs.end()) {
        Out.insert(cUnknown()); // Extern callee result.
        continue;
      }
      auto RI = RetAbs.find(C);
      if (RI == RetAbs.end())
        continue;
      CSet Conc = contentsAt(RI->second.Conc, Lev);
      Out.insert(Conc.begin(), Conc.end());
      // Symbolic parameter entries: substitute this site's arguments —
      // the context-sensitive step.
      for (auto [K, PLev] : RI->second.Params) {
        if (ArgsIt == P.SiteArgs.end())
          continue;
        auto AI = ArgsIt->second.find(K);
        if (AI == ArgsIt->second.end())
          continue;
        for (const Tok &T : AI->second) {
          CSet V = resolve(P, T.Chan, T.Lev + PLev + Lev, Vis);
          Out.insert(V.begin(), V.end());
        }
      }
    }
    return Out;
  }
  return {cUnknown()};
}

RetVal Composer::resolveSym(const PProc &P, const std::string &Chan, int Lev,
                            Visited &Vis) const {
  RetVal Out;
  if (Chan.rfind("p:", 0) == 0 && Lev <= MaxLev) {
    int K = 0;
    if (parseInt(Chan.substr(2), K)) {
      Out.Params.insert({K, Lev});
      return Out;
    }
  }
  if (Chan.rfind("c:", 0) == 0 && Lev <= MaxLev) {
    // return f(...): keep transitive parameter channels symbolic.
    int Ord = 0;
    if (parseInt(Chan.substr(2), Ord)) {
      auto SI = P.Sites.find(Ord);
      if (SI != P.Sites.end()) {
        if (!Vis.insert({&P, "sym:" + Chan, Lev}).second)
          return Out;
        std::set<std::string> Callees;
        bool Unknown = false;
        siteTargets(P, *SI->second, Callees, Unknown);
        if (Unknown)
          Out.Conc.insert(cUnknown());
        auto ArgsIt = P.SiteArgs.find(Ord);
        for (const std::string &C : Callees) {
          auto CI = Procs.find(C);
          if (CI == Procs.end()) {
            Out.Conc.insert(cUnknown());
            continue;
          }
          auto RI = RetAbs.find(C);
          if (RI == RetAbs.end())
            continue;
          CSet Conc = contentsAt(RI->second.Conc, Lev);
          Out.Conc.insert(Conc.begin(), Conc.end());
          for (auto [K, PLev] : RI->second.Params) {
            if (ArgsIt == P.SiteArgs.end())
              continue;
            auto AI = ArgsIt->second.find(K);
            if (AI == ArgsIt->second.end())
              continue;
            for (const Tok &T : AI->second) {
              RetVal Sub = resolveSym(P, T.Chan, T.Lev + PLev + Lev, Vis);
              Out.Conc.insert(Sub.Conc.begin(), Sub.Conc.end());
              Out.Params.insert(Sub.Params.begin(), Sub.Params.end());
            }
          }
        }
        return Out;
      }
    }
  }
  Visited CVis;
  Out.Conc = resolve(P, Chan, Lev, CVis);
  return Out;
}

void Composer::siteTargets(const PProc &P, const GPGCallSite &Site,
                           std::set<std::string> &Funcs,
                           bool &Unknown) const {
  if (!Site.Callee.empty()) {
    Funcs.insert(Site.Callee);
    return;
  }
  for (const std::string &T : Site.Targets) {
    size_t Caret = T.rfind('^');
    std::string Chan = T.substr(0, Caret);
    int Lev = 0;
    if (Caret == std::string::npos || !parseInt(T.substr(Caret + 1), Lev)) {
      Unknown = true;
      continue;
    }
    Visited Vis;
    for (const CVal &V : resolve(P, Chan, Lev, Vis)) {
      if (V.K == CVal::AddrF)
        Funcs.insert(V.Name);
      else
        Unknown = true; // Unknown or a data address: not a callee.
    }
  }
}

//===----------------------------------------------------------------------===//
// Fixpoint.
//===----------------------------------------------------------------------===//

void Composer::seed() {
  for (const ModuleSummary &M : Summaries) {
    for (const GlobalSummary &G : M.Globals) {
      if (!G.FuncInit.empty())
        addContents(G.QualName, {cAddrF(G.FuncInit)});
      if (!ClosedWorld && !G.IsStatic)
        GlobalEscape.insert(G.QualName);
    }
    if (!ClosedWorld)
      for (const ProcSummary &PS : M.Procs)
        if (PS.QualName.find(':') == std::string::npos)
          EscapedFuncs.insert(PS.QualName); // Exported: callable outside.
  }
}

void Composer::bindSite(PProc &P, int Ord, const GPGCallSite &Site) {
  std::set<std::string> Callees;
  bool Unknown = false;
  siteTargets(P, Site, Callees, Unknown);
  auto ArgsIt = P.SiteArgs.find(Ord);
  bool ArgsEscape = Unknown;
  for (const std::string &C : Callees) {
    auto CI = Procs.find(C);
    if (CI == Procs.end()) {
      ArgsEscape = true; // Extern callee: arguments leave the program.
      continue;
    }
    if (SeenContexts.insert({P.PS->QualName, Ord, C}).second)
      ++CS.Contexts;
    if (ArgsIt == P.SiteArgs.end())
      continue;
    for (const auto &[K, Toks] : ArgsIt->second) {
      CSet V;
      for (const Tok &T : Toks) {
        CSet R = resolveTok(P, T);
        V.insert(R.begin(), R.end());
      }
      CSet &D = ParamIn[C][K];
      for (const CVal &X : V)
        Changed |= D.insert(X).second;
    }
  }
  if (ArgsEscape && ArgsIt != P.SiteArgs.end())
    for (const auto &[K, Toks] : ArgsIt->second)
      for (const Tok &T : Toks)
        escapeSet(resolveTok(P, T));
}

void Composer::round() {
  for (const std::string &Qual : Order) {
    PProc &P = Procs[Qual];
    // Stores: Dst (chan, L) writes through the value at (chan, L-1).
    for (const GPGUpdate *U : P.Stores) {
      CSet V;
      {
        Visited Vis;
        V = resolve(P, U->Src, U->SrcLev, Vis);
      }
      if (V.empty())
        continue;
      Visited Vis;
      CSet Ptr = resolve(P, U->Dst, U->DstLev - 1, Vis);
      for (const CVal &T : Ptr) {
        if (T.K == CVal::AddrG)
          addContents(T.Name, V);
        else if (T.K == CVal::Unknown)
          escapeSet(V); // Store through unknown leaks the value.
      }
    }
    for (const Tok &T : P.Escapes)
      escapeSet(resolveTok(P, T));
    for (const Tok &T : P.Derefs)
      for (const CVal &V : resolveTok(P, T))
        if (V.K == CVal::AddrG)
          Changed |= GlobalDeref.insert(V.Name).second;
    for (const Tok &T : P.Rets) {
      Visited Vis;
      RetVal R = resolveSym(P, T.Chan, T.Lev, Vis);
      RetVal &D = RetAbs[Qual];
      for (const CVal &V : R.Conc)
        Changed |= D.Conc.insert(V).second;
      for (const auto &Pr : R.Params)
        Changed |= D.Params.insert(Pr).second;
    }
    for (const auto &[Ord, Site] : P.Sites)
      bindSite(P, Ord, *Site);
  }
  closure();
}

void Composer::closure() {
  // Escaped globals: externally readable (their contents escape) and
  // writable (they gain Unknown). Escaped functions: callable from
  // unknown code with unknown arguments; their returns are observable.
  for (const std::string &G : std::set<std::string>(GlobalEscape)) {
    addContents(G, {cUnknown()});
    escapeSet(Contents[G]);
  }
  for (const std::string &F : std::set<std::string>(EscapedFuncs)) {
    auto PI = Procs.find(F);
    if (PI == Procs.end())
      continue;
    bool &PU = ParamsUnknown[F];
    if (!PU) {
      PU = true;
      Changed = true;
    }
    auto RI = RetAbs.find(F);
    if (RI != RetAbs.end())
      escapeSet(RI->second.Conc);
    // Symbolic entries resolve to Unknown for the unknown caller —
    // nothing further escapes.
  }
}

//===----------------------------------------------------------------------===//
// Applying the composed facts.
//===----------------------------------------------------------------------===//

void Composer::applyVerdicts() {
  std::set<std::string> CountedRefuted;
  for (ModuleSummary &M : Summaries) {
    for (GlobalSummary &G : M.Globals) {
      EscapeVerdict V = EscapeVerdict::Refuted;
      if (GlobalEscape.count(G.QualName))
        V = EscapeVerdict::Escapes;
      else if (GlobalDeref.count(G.QualName))
        V = EscapeVerdict::ModuleLocal;
      if (static_cast<int>(V) > static_cast<int>(G.Escape)) {
        if (V == EscapeVerdict::Refuted && G.Aliased &&
            CountedRefuted.insert(G.QualName).second)
          ++CS.RefutedBeyondAndersen;
        G.Escape = V;
      }
    }
  }
}

void Composer::applyIndirect() {
  for (ModuleSummary &M : Summaries) {
    for (ProcSummary &PS : M.Procs) {
      const PProc &P = Procs[PS.QualName];
      bool HasInd = false, Resolved = true;
      std::set<std::string> Targets;
      for (const auto &[Ord, Site] : P.Sites) {
        if (!Site->Callee.empty())
          continue;
        HasInd = true;
        bool Unknown = false;
        siteTargets(P, *Site, Targets, Unknown);
        Resolved &= !Unknown;
      }
      if (!HasInd || !Resolved)
        continue;
      if (!PS.IndTargetsResolved) {
        PS.IndTargetsResolved = true;
        PS.IndirectTargets.assign(Targets.begin(), Targets.end());
        ++CS.ResolvedBeyondAndersen;
      } else {
        // Both facts are sound: keep the intersection.
        std::vector<std::string> Narrow;
        for (const std::string &T : PS.IndirectTargets)
          if (Targets.count(T))
            Narrow.push_back(T);
        if (Narrow.size() < PS.IndirectTargets.size()) {
          PS.IndirectTargets = std::move(Narrow);
          ++CS.ResolvedBeyondAndersen;
        }
      }
    }
  }
}

void Composer::run() {
  index();
  orderBottomUp();
  seed();
  do {
    Changed = false;
    round();
  } while (Changed);
  CS.ComposedProcs = static_cast<int>(Procs.size());
  applyVerdicts();
  applyIndirect();
}

} // namespace

bool ipra::gpgCompositionApplies(
    const std::vector<ModuleSummary> &Summaries) {
  if (Summaries.empty())
    return false;
  for (const ModuleSummary &M : Summaries)
    for (const ProcSummary &PS : M.Procs)
      if (!PS.HasGPG)
        return false;
  return true;
}

bool ipra::strengthenSummariesWithGPG(std::vector<ModuleSummary> &Summaries,
                                      bool ClosedWorld,
                                      GPGComposeStats *Stats) {
  if (!gpgCompositionApplies(Summaries))
    return false;
  GPGComposeStats Local;
  Composer C(Summaries, ClosedWorld, Stats ? *Stats : Local);
  C.run();
  return true;
}
