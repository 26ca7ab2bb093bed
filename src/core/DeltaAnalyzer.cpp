//===- DeltaAnalyzer.cpp - Sub-linear incremental re-analysis ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/DeltaAnalyzer.h"

#include "analysis/GPGCompose.h"
#include "core/AnalyzerInternal.h"
#include "summary/SummaryDiff.h"
#include "support/Json.h"
#include "support/NodeSet.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

using namespace ipra;
using analyzer_detail::finishFromWebs;
using analyzer_detail::webOptionsFor;

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0)
      .count();
}

/// Everything the output depends on: the AnalyzerOptions field list,
/// which leaves out NumThreads (it must not force a full run).
bool sameOptions(const AnalyzerOptions &A, const AnalyzerOptions &B) {
  return json::encode(A) == json::encode(B);
}

bool sameProfile(const CallProfile &A, const CallProfile &B) {
  return A.CallCounts == B.CallCounts && A.EdgeCounts == B.EdgeCounts;
}

// --- Retained-run persistence helpers -------------------------------------

/// Length-prefixed string: "<len>\n<bytes>\n". Safe for any contents
/// (summary texts, database text, discard reasons with spaces).
void putStr(std::ostream &Out, const std::string &S) {
  Out << S.size() << '\n' << S << '\n';
}

bool getStr(std::istream &In, std::string &Out) {
  size_t Len = 0;
  if (!(In >> Len))
    return false;
  if (In.get() != '\n')
    return false;
  Out.resize(Len);
  if (Len && !In.read(&Out[0], static_cast<std::streamsize>(Len)))
    return false;
  return In.get() == '\n';
}

bool getBool(std::istream &In, bool &Out) {
  int V = 0;
  if (!(In >> V) || (V != 0 && V != 1))
    return false;
  Out = V != 0;
  return true;
}

/// Reads "<count> <id>..." into a NodeSet, rejecting ids outside
/// [0, Universe).
bool getNodeSet(std::istream &In, int Universe, NodeSet &Out) {
  size_t Count = 0;
  if (!(In >> Count))
    return false;
  Out = NodeSet::withUniverse(static_cast<size_t>(Universe));
  for (size_t I = 0; I < Count; ++I) {
    int N = -1;
    if (!(In >> N) || N < 0 || N >= Universe)
      return false;
    Out.insert(N);
  }
  return true;
}

void putNodeSet(std::ostream &Out, const NodeSet &S) {
  Out << S.size();
  for (int N : S)
    Out << ' ' << N;
}

} // namespace

DeltaAnalyzer::DeltaAnalyzer() = default;
DeltaAnalyzer::~DeltaAnalyzer() = default;
DeltaAnalyzer::DeltaAnalyzer(DeltaAnalyzer &&) noexcept = default;
DeltaAnalyzer &DeltaAnalyzer::operator=(DeltaAnalyzer &&) noexcept =
    default;

bool DeltaAnalyzer::retainable(std::string &Reason) const {
  if (Opts.Promotion == PromotionMode::Blanket) {
    // Blanket webs are a cross-global top-N selection: any touched
    // global can displace any other, so there is no per-global splice.
    Reason = "blanket promotion selects webs across globals";
    return false;
  }
  if (Opts.Promotion != PromotionMode::None && Opts.Webs.RemergeWebs) {
    // §7.6.1 re-merging runs over the concatenated whole-program list
    // (idom-based), coupling webs across the splice boundary.
    Reason = "web re-merging couples webs across globals";
    return false;
  }
  return true;
}

void DeltaAnalyzer::storeWebs(std::vector<std::vector<Web>> PerGlobal) {
  size_t Total = 0;
  for (const std::vector<Web> &GWebs : PerGlobal)
    Total += GWebs.size();
  Webs.clear();
  Webs.reserve(Total);
  WebStart.assign(PerGlobal.size() + 1, 0);
  for (size_t G = 0; G < PerGlobal.size(); ++G) {
    WebStart[G] = static_cast<int>(Webs.size());
    for (Web &W : PerGlobal[G]) {
      W.Id = static_cast<int>(Webs.size());
      Webs.push_back(std::move(W));
    }
  }
  WebStart[PerGlobal.size()] = static_cast<int>(Webs.size());
}

ProgramDatabase DeltaAnalyzer::finish(std::vector<Web> &Ws,
                                      AnalyzerStats &S) const {
  // Retained webs carry the previous run's coloring; finishFromWebs
  // requires the uncolored state (fresh discovery leaves -1).
  for (Web &W : Ws)
    W.AssignedReg = -1;
  S.TotalWebs = S.ConsideredWebs = S.ColoredWebs = 0;
  S.SplitWebs = S.RemergedWebs = 0;
  S.ColoringMs = S.ClustersMs = S.RegSetsMs = 0;
  S.NumClusters = S.TotalClusterNodes = S.MaxClusterSize = 0;
  return finishFromWebs(*CG, *RS, Ws, Opts, S, Opts.ModRef ? &MR : nullptr);
}

ProgramDatabase
DeltaAnalyzer::primeFull(const std::vector<ModuleSummary> &Summaries,
                         const CallProfile &Profile) {
  Stats = AnalyzerStats();
  Clock::time_point T0 = Clock::now();
  CG = std::make_unique<CallGraph>(Summaries, Profile,
                                   Opts.PointsTo != PointsToMode::Off);
  RS = std::make_unique<RefSets>(*CG, Opts.AssumeClosedWorld);
  Stats.EligibleGlobals = RS->numEligible();
  Stats.EscapesRefuted = static_cast<int>(CG->escapesRefuted());
  Stats.IndirectCallersResolved =
      static_cast<int>(CG->indirectCallersResolved());
  Stats.RefSetsMs = msSince(T0);

  MR = ModRefInfo();
  if (Opts.ModRef) {
    T0 = Clock::now();
    MR = computeModRef(*CG, Opts.AssumeClosedWorld);
    Stats.ModRefMs = msSince(T0);
    analyzer_detail::countModRef(*CG, MR, Stats);
  }
  const ModRefInfo *MRP = Opts.ModRef ? &MR : nullptr;

  // Discovery, keeping the per-global segments. Fanning out over
  // websForGlobal and flattening in global-id order is exactly
  // buildWebs (which the retainable() gate restricts us to the
  // remerge-free case of); Blanket and non-retainable configurations
  // go through the stock discovery stage instead.
  std::string Unused;
  if (Opts.Promotion == PromotionMode::None || !retainable(Unused)) {
    Webs = analyzer_detail::discoverPromotionWebs(*CG, *RS, Opts, Stats,
                                                  MRP);
    WebStart.clear();
  } else {
    T0 = Clock::now();
    std::vector<std::vector<int>> SccMembers(CG->size());
    for (int N = 0; N < CG->size(); ++N)
      SccMembers[CG->sccId(N)].push_back(N);
    WebOptions WO = webOptionsFor(Opts);
    std::vector<std::vector<Web>> PerGlobal(
        static_cast<size_t>(RS->numEligible()));
    parallelForEach(PerGlobal.size(), resolveThreadCount(WO.NumThreads),
                    [&](size_t G) {
                      PerGlobal[G] = websForGlobal(
                          *CG, *RS, static_cast<int>(G), SccMembers, WO,
                          MRP);
                    });
    Stats.WebsMs = msSince(T0);
    storeWebs(std::move(PerGlobal));
  }

  ProgramDatabase DB = finishFromWebs(*CG, *RS, Webs, Opts, Stats, MRP);
  Primed = true;
  return DB;
}

bool DeltaAnalyzer::tryIncremental(
    const std::vector<ModuleSummary> &Summaries, const CallProfile &Profile,
    std::string &Reason, ProgramDatabase &DB) {
  ProgramSummaryDelta PD = diffProgramSummaries(*PrevSummaries, Summaries);
  if (PD.ModuleSequenceChanged) {
    Reason = "module sequence changed";
    return false;
  }

  Delta.TotalSccs = 0;
  for (int N = 0; N < CG->size(); ++N)
    Delta.TotalSccs = std::max(Delta.TotalSccs, CG->sccId(N) + 1);
  Delta.TotalGlobals = RS->numEligible();

  if (PD.identical()) {
    // Allocation-neutral rebuild of some module: nothing to
    // re-discover, only the final stage to run again.
    Delta.Mode = DeltaMode::Incremental;
    DB = finish(Webs, Stats);
    return true;
  }

  for (const ModuleSummaryDelta &MD : PD.ChangedModules) {
    if (MD.ProcSequenceChanged) {
      // Adding/removing/reordering procedures re-lays node ids; ids
      // leak into every iteration order, so splicing cannot reproduce
      // cold bytes.
      Reason = "procedure sequence changed in " + MD.Module;
      return false;
    }
    if (MD.AddrTakenSetChanged) {
      // The address-taken set is the fan-out universe of every
      // unresolved indirect call — a change damages all of them.
      Reason = "address-taken set changed in " + MD.Module;
      return false;
    }
    // MD.GlobalsChanged is not an instant fallback: escape-verdict
    // drift that does not flip a merged fact is absorbed, and
    // applyProcDelta's facts precheck rejects the rest.
  }

  // Node ids of summarized procedures are running offsets in module /
  // procedure order; with both sequences unchanged they are stable.
  std::map<std::string, int> ModuleOffset;
  {
    int Off = 0;
    for (const ModuleSummary &S : *PrevSummaries) {
      ModuleOffset[S.Module] = Off;
      Off += static_cast<int>(S.Procs.size());
    }
  }
  std::vector<CallGraph::ProcPatch> Patches;
  for (const ModuleSummaryDelta &MD : PD.ChangedModules) {
    int Off = ModuleOffset.at(MD.Module);
    const ModuleSummary *NewMod = nullptr;
    for (const ModuleSummary &S : Summaries)
      if (S.Module == MD.Module) {
        NewMod = &S;
        break;
      }
    for (int PI : MD.ChangedProcs)
      Patches.push_back({Off + PI, &NewMod->Procs[PI]});
  }

  Clock::time_point T0 = Clock::now();

  // --- Pre-patch snapshots: the damage terms compare against these.
  std::vector<long long> OldInv = CG->invocations();
  std::vector<int> OldSccIds = CG->sccIds();
  struct NodeSnapshot {
    int Node;
    std::vector<int> Succs, Preds;
  };
  std::vector<NodeSnapshot> Snaps;
  Snaps.reserve(Patches.size());
  for (const CallGraph::ProcPatch &P : Patches)
    Snaps.push_back(
        {P.Node, CG->node(P.Node).Succs, CG->node(P.Node).Preds});

  std::string FB;
  if (!CG->applyProcDelta(Summaries, Profile, Patches, FB)) {
    Reason = FB; // No mutation happened; a cold re-prime is safe.
    return false;
  }
  // From here on the graph is patched: the path must run to completion
  // (every remaining step is infallible).

  int NumSccs = 0;
  for (int N = 0; N < CG->size(); ++N)
    NumSccs = std::max(NumSccs, CG->sccId(N) + 1);

  // --- SCC member-set changes. A new SCC is unchanged iff its members
  // all carried one old id and that old SCC had the same size (either
  // check alone is insufficient: {1,2,3} -> {1,2}+{3} keeps 1's old id,
  // and {1,2,3} -> {1,2,4} keeps the size). Changed membership flips
  // the LAll/Cyclic dataflow terms and the §4.1.2 cycle-web seeds, so
  // all involved members — old and new — join the damage set.
  NodeSet DamageSeeds = NodeSet::withUniverse(CG->size());
  {
    std::vector<std::vector<int>> OldMembers(OldSccIds.size());
    int NumOldSccs = 0;
    for (size_t N = 0; N < OldSccIds.size(); ++N)
      NumOldSccs = std::max(NumOldSccs, OldSccIds[N] + 1);
    OldMembers.resize(NumOldSccs);
    for (size_t N = 0; N < OldSccIds.size(); ++N)
      OldMembers[OldSccIds[N]].push_back(static_cast<int>(N));

    std::vector<std::vector<int>> NewMembers(NumSccs);
    for (int N = 0; N < CG->size(); ++N)
      NewMembers[CG->sccId(N)].push_back(N);

    for (const std::vector<int> &Ms : NewMembers) {
      if (Ms.empty())
        continue;
      int OldId = OldSccIds[Ms.front()];
      bool Unchanged = OldMembers[OldId].size() == Ms.size();
      for (size_t I = 1; Unchanged && I < Ms.size(); ++I)
        Unchanged = OldSccIds[Ms[I]] == OldId;
      if (Unchanged)
        continue;
      for (int M : Ms) {
        DamageSeeds.insert(M);
        for (int O : OldMembers[OldSccIds[M]])
          DamageSeeds.insert(O);
      }
    }
  }

  // --- Adjacency damage: patched nodes plus both generations of their
  // out-neighborhoods (an old successor lost a P_REF input term even
  // when it is no longer adjacent).
  std::vector<int> RefChanged;
  for (const NodeSnapshot &S : Snaps) {
    RefChanged.push_back(S.Node);
    DamageSeeds.insert(S.Node);
    for (int O : S.Succs)
      DamageSeeds.insert(O);
    for (int O : CG->node(S.Node).Succs)
      DamageSeeds.insert(O);
  }
  std::vector<int> SeedVec(DamageSeeds.begin(), DamageSeeds.end());

  DynBitset Touched(static_cast<size_t>(RS->numEligible()));
  Delta.DamagedSccs = RS->applyDelta(RefChanged, SeedVec, Touched);
  Stats.RefSetsMs = msSince(T0);
  Stats.EligibleGlobals = RS->numEligible();
  Stats.EscapesRefuted = static_cast<int>(CG->escapesRefuted());
  Stats.IndirectCallersResolved =
      static_cast<int>(CG->indirectCallersResolved());

  // --- Mod/ref verdicts: recomputed over the whole patched graph (a
  // graph walk plus a bit-union per reachable ref — far below one
  // global's web discovery) rather than spliced. A global whose
  // dead/read-only predicate flips joins the damage set below;
  // websForGlobal reads exactly those two predicates of MR, so an
  // unflipped global's discovery replays byte-identically.
  ModRefInfo NewMR;
  if (Opts.ModRef) {
    Clock::time_point TM = Clock::now();
    NewMR = computeModRef(*CG, Opts.AssumeClosedWorld);
    Stats.ModRefMs = msSince(TM);
    Stats.ReadOnlyGlobals = Stats.WriteOnlyGlobals = 0;
    Stats.DeadGlobals = Stats.UninitReadGlobals = Stats.DeadProcs = 0;
    analyzer_detail::countModRef(*CG, NewMR, Stats);
  }
  const ModRefInfo *MRP = Opts.ModRef ? &NewMR : nullptr;

  // --- Node damage for web reuse (NDP): the refset seeds plus every
  // node whose invocation estimate moved (web priorities weight
  // reference frequencies by it) plus — when a patched node's leaf-ness
  // flipped — its callers (the ×2 leaf bonus and the split-web wrap
  // cost model read callee leaf-ness).
  NodeSet NDP = DamageSeeds;
  const std::vector<long long> &NewInv = CG->invocations();
  for (int N = 0; N < CG->size(); ++N)
    if (OldInv[N] != NewInv[N])
      NDP.insert(N);
  for (const NodeSnapshot &S : Snaps)
    if (S.Succs.empty() != CG->node(S.Node).Succs.empty()) {
      for (int P : S.Preds)
        NDP.insert(P);
      for (int P : CG->node(S.Node).Preds)
        NDP.insert(P);
    }

  // --- Damaged globals: touched rows, or a retained web overlapping
  // NDP (discarded webs included: their discard decision read the same
  // damaged inputs).
  std::vector<int> DamagedGids;
  if (Opts.Promotion == PromotionMode::Webs ||
      Opts.Promotion == PromotionMode::Greedy) {
    for (int G = 0; G < RS->numEligible(); ++G) {
      bool Damaged = Touched.test(static_cast<size_t>(G));
      if (!Damaged && Opts.ModRef) {
        const std::string &Name = RS->globalName(G);
        Damaged = MR.deadGlobal(Name) != NewMR.deadGlobal(Name) ||
                  MR.readOnlyGlobal(Name) != NewMR.readOnlyGlobal(Name);
      }
      for (int I = WebStart[G]; !Damaged && I < WebStart[G + 1]; ++I)
        if (Webs[I].Nodes.intersects(NDP))
          Damaged = true;
      if (Damaged)
        DamagedGids.push_back(G);
    }

    T0 = Clock::now();
    std::vector<std::vector<int>> SccMembers(NumSccs);
    for (int N = 0; N < CG->size(); ++N)
      SccMembers[CG->sccId(N)].push_back(N);
    WebOptions WO = webOptionsFor(Opts);
    std::vector<std::vector<Web>> NewWebs(DamagedGids.size());
    parallelForEach(DamagedGids.size(), resolveThreadCount(WO.NumThreads),
                    [&](size_t I) {
                      NewWebs[I] = websForGlobal(*CG, *RS, DamagedGids[I],
                                                 SccMembers, WO, MRP);
                    });

    // Splice: retained segments move over, damaged segments are
    // replaced, and the whole list is renumbered in global-id order —
    // the order buildWebs emits. Moves only; no web is copied.
    size_t Total = Webs.size();
    for (size_t I = 0; I < DamagedGids.size(); ++I) {
      int G = DamagedGids[I];
      Total += NewWebs[I].size() -
               static_cast<size_t>(WebStart[G + 1] - WebStart[G]);
    }
    std::vector<Web> Spliced;
    Spliced.reserve(Total);
    std::vector<int> NewStart(WebStart.size(), 0);
    size_t DI = 0;
    for (int G = 0; G < RS->numEligible(); ++G) {
      NewStart[G] = static_cast<int>(Spliced.size());
      if (DI < DamagedGids.size() && DamagedGids[DI] == G) {
        for (Web &W : NewWebs[DI])
          Spliced.push_back(std::move(W));
        ++DI;
      } else {
        for (int I = WebStart[G]; I < WebStart[G + 1]; ++I)
          Spliced.push_back(std::move(Webs[I]));
      }
    }
    NewStart[static_cast<size_t>(RS->numEligible())] =
        static_cast<int>(Spliced.size());
    Webs = std::move(Spliced);
    WebStart = std::move(NewStart);
    for (size_t I = 0; I < Webs.size(); ++I)
      Webs[I].Id = static_cast<int>(I);
    Stats.WebsMs = msSince(T0);
  } else {
    Stats.WebsMs = 0;
  }

  MR = std::move(NewMR);
  DB = finish(Webs, Stats);

  Delta.Mode = DeltaMode::Incremental;
  Delta.ChangedProcs = static_cast<int>(Patches.size());
  Delta.DamagedGlobals = static_cast<int>(DamagedGids.size());
  return true;
}

ProgramDatabase
DeltaAnalyzer::analyze(const std::vector<ModuleSummary> &Summaries,
                       const AnalyzerOptions &Options,
                       const CallProfile &Profile) {
  return analyze(std::make_shared<const std::vector<ModuleSummary>>(Summaries),
                 Options, Profile);
}

ProgramDatabase DeltaAnalyzer::analyze(SummarySet Summaries,
                                       const AnalyzerOptions &Options,
                                       const CallProfile &Profile) {
  // GPG mode: strengthen a copy up front (idempotent — see
  // runAnalyzer). Diffing, damaging and retaining the *strengthened*
  // form keeps SummaryDiff's damage regions aligned with the facts the
  // graph actually consumed: a GPG-only edit surfaces as an escape
  // verdict / indirect-target drift on exactly the affected rows.
  GPGComposeStats GPG;
  if (Options.PointsTo == PointsToMode::GPG) {
    std::vector<ModuleSummary> Strengthened = *Summaries;
    if (strengthenSummariesWithGPG(Strengthened, Options.AssumeClosedWorld,
                                   &GPG))
      Summaries = std::make_shared<const std::vector<ModuleSummary>>(
          std::move(Strengthened));
  }

  Delta = DeltaStats();
  ProgramDatabase DB;
  std::string Reason;
  if (!Primed)
    Reason = "first analysis";
  else if (!sameOptions(Opts, Options))
    Reason = "analyzer options changed";
  else if (!sameProfile(Prof, Profile))
    Reason = "profile changed";
  else if (!retainable(Reason)) {
    // Reason set by retainable().
  } else if (tryIncremental(*Summaries, Profile, Reason, DB)) {
    Stats.GPG = GPG;
    PrevSummaries = std::move(Summaries);
    return DB;
  }

  Opts = Options;
  Prof = Profile;
  Delta.Mode = DeltaMode::Full;
  Delta.FallbackReason = Reason;
  Delta.ChangedProcs = 0;
  DB = primeFull(*Summaries, Profile);
  PrevSummaries = std::move(Summaries);
  Stats.GPG = GPG;
  Delta.TotalGlobals = RS->numEligible();
  Delta.DamagedGlobals = Delta.TotalGlobals;
  Delta.TotalSccs = 0;
  for (int N = 0; N < CG->size(); ++N)
    Delta.TotalSccs = std::max(Delta.TotalSccs, CG->sccId(N) + 1);
  Delta.DamagedSccs = Delta.TotalSccs;
  return DB;
}

//===----------------------------------------------------------------------===//
// Retained-run persistence (warm daemon restarts, DESIGN.md §13).
//
//   ipra-retained <version>
//   options <json::encode of the AnalyzerOptions field list>
//   profile <ncalls> <nedges>  + one "call"/"edge" record each
//   summaries <n>              + one length-prefixed writeSummary text each
//   webs <nwebs> <has-webstart>
//   webstart <n> <v>...        (only for web/greedy promotion)
//   web <fields> + nodes/entry/wrap sets + length-prefixed discard reason
//   database                   + length-prefixed ProgramDatabase::serialize
//   end
//
// The call graph and reference sets are rebuilt from the summaries at
// restore time with the exact constructor calls primeFull uses, so the
// restored state is the deterministic image of the serialized inputs —
// the blob can be stale or truncated but never make the state
// inconsistent: every parse or validation failure leaves the analyzer
// unprimed and the caller falls back to a cold prime.
//===----------------------------------------------------------------------===//

bool DeltaAnalyzer::serializeRetained(std::string &Out) const {
  std::string Reason;
  if (!Primed || !retainable(Reason))
    return false;
  std::ostringstream O;
  O << "ipra-retained " << RetainedFormatVersion << "\n";
  O << "options " << json::encode(Opts).dump() << "\n";
  O << "profile " << Prof.CallCounts.size() << ' ' << Prof.EdgeCounts.size()
    << "\n";
  for (const auto &[Name, N] : Prof.CallCounts) {
    O << "call " << N << ' ';
    putStr(O, Name);
  }
  for (const auto &[Edge, N] : Prof.EdgeCounts) {
    O << "edge " << N << ' ';
    putStr(O, Edge.first);
    putStr(O, Edge.second);
  }
  O << "summaries " << PrevSummaries->size() << "\n";
  for (const ModuleSummary &S : *PrevSummaries)
    putStr(O, writeSummary(S));
  O << "webs " << Webs.size() << ' ' << (WebStart.empty() ? 0 : 1) << "\n";
  if (!WebStart.empty()) {
    O << "webstart " << WebStart.size();
    for (int V : WebStart)
      O << ' ' << V;
    O << "\n";
  }
  for (const Web &W : Webs) {
    O << "web " << W.GlobalId << ' ' << W.Modifies << ' ' << W.Priority
      << ' ' << W.AssignedReg << ' ' << W.Considered << ' ' << W.IsRemerged
      << ' ' << W.IsSplit << "\n";
    O << "nodes ";
    putNodeSet(O, W.Nodes);
    O << "\nentry " << W.EntryNodes.size();
    for (int N : W.EntryNodes)
      O << ' ' << N;
    O << "\ndiscard ";
    putStr(O, W.DiscardReason);
    O << "wrapedges " << W.WrapEdges.size() << "\n";
    for (const auto &[Node, Set] : W.WrapEdges) {
      O << Node << ' ';
      putNodeSet(O, Set);
      O << "\n";
    }
    O << "wrapindirect ";
    putNodeSet(O, W.WrapIndirect);
    O << "\n";
  }
  // The database is not retained; finishing a copy of the colored webs
  // reproduces it (the same stage an identical re-analysis runs).
  std::vector<Web> Colored = Webs;
  AnalyzerStats Unused;
  O << "database ";
  putStr(O, finish(Colored, Unused).serialize());
  O << "end\n";
  Out = O.str();
  return true;
}

bool DeltaAnalyzer::restoreRetained(const std::string &Text,
                                    std::string &Error) {
  // Restoring replaces any retained state; every failure path below
  // must leave the analyzer cleanly unprimed.
  Primed = false;
  RS.reset();
  CG.reset();
  MR = ModRefInfo();
  Webs.clear();
  WebStart.clear();
  PrevSummaries.reset();
  Stats = AnalyzerStats();
  Delta = DeltaStats();

  auto Fail = [&](const std::string &Why) {
    Error = "retained-state restore: " + Why;
    RS.reset();
    CG.reset();
    MR = ModRefInfo();
    Webs.clear();
    WebStart.clear();
    PrevSummaries.reset();
    return false;
  };

  std::istringstream In(Text);
  std::string Tag;
  int Ver = -1;
  if (!(In >> Tag >> Ver) || Tag != "ipra-retained")
    return Fail("not a retained-state blob");
  if (Ver != RetainedFormatVersion)
    return Fail("format version " + std::to_string(Ver) + " (expected " +
                std::to_string(RetainedFormatVersion) + ")");

  AnalyzerOptions O;
  json::Value OptsJson;
  std::string Line, JsonErr;
  if (!(In >> Tag) || Tag != "options" || !std::getline(In, Line) ||
      !json::Value::parse(Line, OptsJson, JsonErr) ||
      !json::decode(OptsJson, O))
    return Fail("malformed options record");

  CallProfile P;
  size_t NumCalls = 0, NumEdges = 0;
  if (!(In >> Tag) || Tag != "profile" || !(In >> NumCalls >> NumEdges))
    return Fail("malformed profile header");
  for (size_t I = 0; I < NumCalls; ++I) {
    long long N = 0;
    std::string Name;
    if (!(In >> Tag) || Tag != "call" || !(In >> N) || !getStr(In, Name))
      return Fail("malformed call-count record");
    P.CallCounts[Name] = N;
  }
  for (size_t I = 0; I < NumEdges; ++I) {
    long long N = 0;
    std::string From, To;
    if (!(In >> Tag) || Tag != "edge" || !(In >> N) || !getStr(In, From) ||
        !getStr(In, To))
      return Fail("malformed edge-count record");
    P.EdgeCounts[{From, To}] = N;
  }

  size_t NumSummaries = 0;
  if (!(In >> Tag) || Tag != "summaries" || !(In >> NumSummaries))
    return Fail("malformed summaries header");
  std::vector<ModuleSummary> Summaries(NumSummaries);
  for (size_t I = 0; I < NumSummaries; ++I) {
    std::string SText, SErr;
    if (!getStr(In, SText))
      return Fail("truncated summary text");
    if (!readSummary(SText, Summaries[I], SErr))
      return Fail("summary " + std::to_string(I) + ": " + SErr);
  }

  size_t NumWebs = 0;
  int HasStart = -1;
  if (!(In >> Tag) || Tag != "webs" || !(In >> NumWebs >> HasStart) ||
      (HasStart != 0 && HasStart != 1))
    return Fail("malformed webs header");
  // A valid blob spends well over one byte per web; a corrupt count
  // must not turn into a giant allocation.
  if (NumWebs > Text.size())
    return Fail("web count exceeds blob size");

  // Rebuild the derived structures before parsing webs: node-id
  // validation needs the graph size, and these are the exact
  // constructor calls primeFull makes, so a valid blob reproduces the
  // serializing process's state bit for bit.
  Opts = O;
  Prof = std::move(P);
  std::string RetainReason;
  if (!retainable(RetainReason))
    return Fail("non-retainable configuration: " + RetainReason);
  CG = std::make_unique<CallGraph>(Summaries, Prof,
                                   Opts.PointsTo != PointsToMode::Off);
  RS = std::make_unique<RefSets>(*CG, Opts.AssumeClosedWorld);
  MR = Opts.ModRef ? computeModRef(*CG, Opts.AssumeClosedWorld)
                   : ModRefInfo();
  int Universe = CG->size();
  int NumEligible = RS->numEligible();

  bool WantStart = Opts.Promotion == PromotionMode::Webs ||
                   Opts.Promotion == PromotionMode::Greedy;
  if (HasStart != (WantStart ? 1 : 0))
    return Fail("web-start table does not match promotion mode");
  if (HasStart) {
    size_t N = 0;
    if (!(In >> Tag) || Tag != "webstart" || !(In >> N) ||
        N != static_cast<size_t>(NumEligible) + 1)
      return Fail("web-start table size mismatch");
    WebStart.resize(N);
    int Prev = 0;
    for (size_t I = 0; I < N; ++I) {
      if (!(In >> WebStart[I]) || WebStart[I] < Prev)
        return Fail("web-start table not monotone");
      Prev = WebStart[I];
    }
    if (static_cast<size_t>(WebStart.back()) != NumWebs ||
        WebStart.front() != 0)
      return Fail("web-start table does not cover the web list");
  }

  Webs.resize(NumWebs);
  for (size_t I = 0; I < NumWebs; ++I) {
    Web &W = Webs[I];
    W.Id = static_cast<int>(I);
    if (!(In >> Tag) || Tag != "web" || !(In >> W.GlobalId) ||
        !getBool(In, W.Modifies) || !(In >> W.Priority) ||
        !(In >> W.AssignedReg) || !getBool(In, W.Considered) ||
        !getBool(In, W.IsRemerged) || !getBool(In, W.IsSplit))
      return Fail("malformed web record");
    if (W.GlobalId < 0 || W.GlobalId >= NumEligible)
      return Fail("web global id outside the rebuilt universe");
    if (!(In >> Tag) || Tag != "nodes" || !getNodeSet(In, Universe, W.Nodes))
      return Fail("malformed web node set");
    size_t NumEntries = 0;
    if (!(In >> Tag) || Tag != "entry" || !(In >> NumEntries))
      return Fail("malformed web entry list");
    W.EntryNodes.resize(NumEntries);
    for (size_t E = 0; E < NumEntries; ++E)
      if (!(In >> W.EntryNodes[E]) || W.EntryNodes[E] < 0 ||
          W.EntryNodes[E] >= Universe)
        return Fail("web entry node outside the rebuilt universe");
    if (!(In >> Tag) || Tag != "discard" || !getStr(In, W.DiscardReason))
      return Fail("malformed web discard reason");
    size_t NumWrap = 0;
    if (!(In >> Tag) || Tag != "wrapedges" || !(In >> NumWrap))
      return Fail("malformed web wrap-edge table");
    for (size_t E = 0; E < NumWrap; ++E) {
      int Node = -1;
      NodeSet Set;
      if (!(In >> Node) || Node < 0 || Node >= Universe ||
          !getNodeSet(In, Universe, Set))
        return Fail("malformed web wrap-edge entry");
      W.WrapEdges[Node] = std::move(Set);
    }
    if (!(In >> Tag) || Tag != "wrapindirect" ||
        !getNodeSet(In, Universe, W.WrapIndirect))
      return Fail("malformed web wrap-indirect set");
  }

  // The database section is checked, then dropped: the next analyze()
  // finishes the restored webs into it again.
  std::string DBText, DBErr;
  ProgramDatabase DB;
  if (!(In >> Tag) || Tag != "database" || !getStr(In, DBText))
    return Fail("truncated database section");
  if (!ProgramDatabase::deserialize(DBText, DB, DBErr))
    return Fail("database: " + DBErr);
  if (!(In >> Tag) || Tag != "end")
    return Fail("missing end marker");

  PrevSummaries =
      std::make_shared<const std::vector<ModuleSummary>>(std::move(Summaries));
  Primed = true;
  return true;
}
