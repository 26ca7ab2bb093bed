//===- DeltaAnalyzer.cpp - Sub-linear incremental re-analysis ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/DeltaAnalyzer.h"

#include "core/AnalyzerInternal.h"
#include "summary/SummaryDiff.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/NodeSet.h"

#include <algorithm>
#include <map>

using namespace ipra;
using analyzer_detail::analyzeCold;
using analyzer_detail::Clock;
using analyzer_detail::finishFromWebs;
using analyzer_detail::msSince;
using analyzer_detail::strengthened;

namespace {

/// Everything the output depends on: the AnalyzerOptions field list,
/// which leaves out NumThreads (it must not force a full run).
bool sameOptions(const AnalyzerOptions &A, const AnalyzerOptions &B) {
  return json::encode(A) == json::encode(B);
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
  if (Opts.Promotion != PromotionMode::None && Opts.RemergeWebs) {
    // §7.6.1 re-merging runs over the concatenated whole-program list
    // (idom-based), coupling webs across the splice boundary.
    Reason = "web re-merging couples webs across globals";
    return false;
  }
  return true;
}

bool DeltaAnalyzer::tryIncremental(
    const std::vector<ModuleSummary> &Summaries, const CallProfile &Profile,
    std::string &Reason) {
  CallGraph &CG = State->CG;
  RefSets &RS = State->RS;
  ProgramSummaryDelta PD = diffProgramSummaries(*State->Summaries, Summaries);
  if (PD.ModuleSequenceChanged) {
    Reason = "module sequence changed";
    return false;
  }
  if (PD.identical())
    return true; // An allocation-neutral rebuild: nothing to re-derive.

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
    for (const ModuleSummary &S : *State->Summaries) {
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
  std::vector<long long> OldInv = CG.invocations();
  CallGraph::SccPartition Old = CG.sccs();
  struct NodeSnapshot {
    int Node;
    std::vector<int> Succs, Preds;
  };
  std::vector<NodeSnapshot> Snaps;
  Snaps.reserve(Patches.size());
  for (const CallGraph::ProcPatch &P : Patches)
    Snaps.push_back(
        {P.Node, CG.node(P.Node).Succs, CG.node(P.Node).Preds});

  std::string FB;
  if (!CG.applyProcDelta(Summaries, Profile, Patches, FB)) {
    Reason = FB; // No mutation happened; a cold re-prime is safe.
    return false;
  }
  // From here on the graph is patched: the path must run to completion
  // (every remaining step is infallible).

  // --- SCC member-set changes. A new SCC is unchanged iff its members
  // all carried one old id and that old SCC had the same size (either
  // check alone is insufficient: {1,2,3} -> {1,2}+{3} keeps 1's old id,
  // and {1,2,3} -> {1,2,4} keeps the size). Changed membership flips
  // the LAll/Cyclic dataflow terms and the §4.1.2 cycle-web seeds, so
  // all involved members — old and new — join the damage set.
  NodeSet DamageSeeds = NodeSet::withUniverse(CG.size());
  for (int Scc = 0; Scc < CG.numSccs(); ++Scc) {
    std::span<const int> Ms = CG.sccMembers(Scc);
    int OldId = Old.Ids[Ms.front()];
    bool Unchanged = Old.members(OldId).size() == Ms.size();
    for (size_t I = 1; Unchanged && I < Ms.size(); ++I)
      Unchanged = Old.Ids[Ms[I]] == OldId;
    if (Unchanged)
      continue;
    for (int M : Ms) {
      DamageSeeds.insert(M);
      for (int O : Old.members(Old.Ids[M]))
        DamageSeeds.insert(O);
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
    for (int O : CG.node(S.Node).Succs)
      DamageSeeds.insert(O);
  }
  std::vector<int> SeedVec(DamageSeeds.begin(), DamageSeeds.end());

  DynBitset Touched(static_cast<size_t>(RS.numEligible()));
  Delta.DamagedSccs = RS.applyDelta(RefChanged, SeedVec, Touched);
  Stats.RefSetsMs = msSince(T0);

  // --- Mod/ref verdicts: recomputed over the whole patched graph (a
  // graph walk plus a bit-union per reachable ref — far below one
  // global's web discovery) rather than spliced. A global whose
  // dead/read-only predicate flips joins the damage set below;
  // web discovery reads exactly those two predicates of MR, so an
  // unflipped global's discovery replays byte-identically.
  ModRefInfo NewMR;
  if (Opts.ModRef) {
    Clock::time_point TM = Clock::now();
    NewMR = computeModRef(CG, Opts.AssumeClosedWorld);
    Stats.ModRefMs = msSince(TM);
  }

  // --- Node damage for web reuse (NDP): the refset seeds plus every
  // node whose invocation estimate moved (web priorities weight
  // reference frequencies by it) plus — when a patched node's leaf-ness
  // flipped — its callers (the ×2 leaf bonus and the split-web wrap
  // cost model read callee leaf-ness).
  NodeSet NDP = DamageSeeds;
  const std::vector<long long> &NewInv = CG.invocations();
  for (int N = 0; N < CG.size(); ++N)
    if (OldInv[N] != NewInv[N])
      NDP.insert(N);
  for (const NodeSnapshot &S : Snaps)
    if (S.Succs.empty() != CG.node(S.Node).Succs.empty()) {
      for (int P : S.Preds)
        NDP.insert(P);
      for (int P : CG.node(S.Node).Preds)
        NDP.insert(P);
    }

  // --- Damaged globals: touched rows, or a retained web overlapping
  // NDP (discarded webs included: their discard decision read the same
  // damaged inputs).
  const std::vector<Web> &Webs = State->Webs;
  const std::vector<int> &WebStart = State->WebStart;
  std::vector<int> DamagedGids;
  if (Opts.Promotion == PromotionMode::Webs ||
      Opts.Promotion == PromotionMode::Greedy) {
    for (int G = 0; G < RS.numEligible(); ++G) {
      bool Damaged = Touched.test(static_cast<size_t>(G));
      if (!Damaged && Opts.ModRef) {
        const std::string &Name = RS.globalName(G);
        Damaged = State->MR.deadGlobal(Name) != NewMR.deadGlobal(Name) ||
                  State->MR.readOnlyGlobal(Name) != NewMR.readOnlyGlobal(Name);
      }
      for (int I = WebStart[G]; !Damaged && I < WebStart[G + 1]; ++I)
        if (Webs[I].Nodes.intersects(NDP))
          Damaged = true;
      if (Damaged)
        DamagedGids.push_back(G);
    }
    T0 = Clock::now();
    rediscoverWebs(CG, RS, DamagedGids, Opts,
                   Opts.ModRef ? &NewMR : nullptr, State->Webs,
                   State->WebStart);
    Stats.WebsMs = msSince(T0);
  }
  State->MR = std::move(NewMR);

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
  // Every call reports its own work: timings start at zero, and the
  // counters are re-derived from the state the database comes from.
  Stats = AnalyzerStats();
  Delta = DeltaStats();
  // GPG mode strengthens up front. Diffing, damaging and retaining the
  // *strengthened* form keeps SummaryDiff's damage regions aligned with
  // the facts the graph actually consumed: a GPG-only edit surfaces as
  // an escape verdict / indirect-target drift on exactly the affected
  // rows.
  Summaries = strengthened(std::move(Summaries), Options, Stats.GPG);

  std::string Reason;
  if (!State)
    Reason = "first analysis";
  else if (!sameOptions(Opts, Options))
    Reason = "analyzer options changed";
  else if (Prof != Profile)
    Reason = "profile changed";
  else if (!retainable(Reason)) {
    // Reason set by retainable().
  } else if (tryIncremental(*Summaries, Profile, Reason)) {
    Delta.Mode = DeltaMode::Incremental;
    State->Summaries = std::move(Summaries);
    State->countInto(Stats);
  }

  if (Delta.Mode == DeltaMode::Full) {
    Opts = Options;
    Prof = Profile;
    Delta.FallbackReason = Reason;
    State.reset(); // The old graph goes before the new one is built.
    State = analyzeCold(std::move(Summaries), Opts, Prof, Stats);
  }
  ProgramDatabase DB = finishFromWebs(*State, Opts, Stats);
  Delta.TotalGlobals = State->RS.numEligible();
  Delta.TotalSccs = State->CG.numSccs();
  if (Delta.Mode == DeltaMode::Full) {
    Delta.DamagedGlobals = Delta.TotalGlobals;
    Delta.DamagedSccs = Delta.TotalSccs;
  }
  return DB;
}

//===----------------------------------------------------------------------===//
// Retained-run persistence (warm daemon restarts, DESIGN.md §13).
//
//   {"format":"ipra-retained","version":5,"digest":"<16 hex digits>"}
//   <json::encode of RetainedRun, one line>
//
// The digest is FNV-1a over the run text and is checked before the run
// is decoded, so a torn or corrupted blob is rejected whole. The call
// graph, reference sets and mod/ref verdicts are rebuilt from the
// summaries by the cold analysis's own AnalysisState constructor, and
// one pass checks the decoded webs against them, so the restored state
// is the deterministic image of the serialized inputs: every failure
// leaves the analyzer unprimed and the caller falls back to a cold
// prime.
//===----------------------------------------------------------------------===//

namespace {

constexpr const char *RetainedFormat = "ipra-retained";

/// The blob's first line (support/Json.h's Record).
struct RetainedHeader {
  std::string Format;
  int Version = 0;
  std::string Digest;

  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("format", S.Format);
    V("version", S.Version);
    V("digest", S.Digest);
  }
};

} // namespace

bool DeltaAnalyzer::serializeRetained(std::string &Out) const {
  std::string Reason;
  if (!State || !retainable(Reason))
    return false;
  RetainedRun Run{Opts, Prof, {}, State->Webs, State->WebStart};
  for (const ModuleSummary &S : *State->Summaries)
    Run.Summaries.push_back(writeSummary(S));
  std::string Text = json::encode(Run).dump();
  Out = json::encode(RetainedHeader{RetainedFormat, RetainedFormatVersion,
                                    hashHex(Text)})
            .dump();
  Out += '\n';
  Out += Text;
  return true;
}

bool DeltaAnalyzer::restoreRetained(const std::string &Text,
                                    std::string &Error) {
  // Restoring replaces any retained state; every failure path below
  // must leave the analyzer cleanly unprimed.
  auto Fail = [&](const std::string &Why) {
    Error = "retained-state restore: " + Why;
    State.reset();
    return false;
  };
  State.reset();
  Stats = AnalyzerStats();
  Delta = DeltaStats();

  RetainedHeader H;
  std::string_view RunText;
  if (!json::readHeaderLine(Text, H, RunText) || H.Format != RetainedFormat)
    return Fail("not a retained-state blob");
  if (H.Version != RetainedFormatVersion)
    return Fail("format version " + std::to_string(H.Version) +
                " (expected " + std::to_string(RetainedFormatVersion) + ")");
  if (H.Digest != hashHex(RunText))
    return Fail("digest mismatch");
  RetainedRun Run;
  json::Value V;
  std::string JsonError, Path;
  if (!json::Value::parse(RunText, V, JsonError))
    return Fail("malformed run: " + JsonError);
  if (!json::decode(V, Run, &Path))
    return Fail("run field '" + Path + "' has an invalid value");
  V = json::Value(); // The tree is dead weight from here on.

  auto Summaries =
      std::make_shared<std::vector<ModuleSummary>>(Run.Summaries.size());
  for (size_t I = 0; I < Summaries->size(); ++I) {
    std::string SummaryError;
    if (!readSummary(Run.Summaries[I], (*Summaries)[I], SummaryError))
      return Fail("summary " + std::to_string(I) + ": " + SummaryError);
  }
  Run.Summaries.clear();

  // The derived structures, built by the cold analysis's own
  // constructor, so a valid blob reproduces the serializing process's
  // state bit for bit; only the webs come from the blob.
  Opts = Run.Options;
  Prof = std::move(Run.Profile);
  std::string RetainReason;
  if (!retainable(RetainReason))
    return Fail("non-retainable configuration: " + RetainReason);
  AnalyzerStats Unused;
  State = std::make_unique<analyzer_detail::AnalysisState>(
      std::move(Summaries), Opts, Prof, Unused);

  // One pass over the decoded webs: the web-start table covers the list
  // monotonically exactly when the promotion mode keeps one, each web
  // sits in its global's segment, and every node lies in the graph.
  const int Universe = State->CG.size();
  const int NumEligible = State->RS.numEligible();
  const std::vector<int> &Start = Run.WebStart;
  if (Opts.Promotion == PromotionMode::Webs ||
      Opts.Promotion == PromotionMode::Greedy) {
    if (Start.size() != static_cast<size_t>(NumEligible) + 1 ||
        Start.front() != 0 ||
        static_cast<size_t>(Start.back()) != Run.Webs.size() ||
        !std::is_sorted(Start.begin(), Start.end()))
      return Fail("web-start table does not cover the web list");
  } else if (!Start.empty()) {
    return Fail("web-start table under a promotion mode without one");
  }
  auto InGraph = [Universe](const NodeSet &S) {
    return std::all_of(S.begin(), S.end(),
                       [Universe](int N) { return N < Universe; });
  };
  for (size_t I = 0, G = 0; I < Run.Webs.size(); ++I) {
    Web &W = Run.Webs[I];
    W.Id = static_cast<int>(I);
    while (!Start.empty() && static_cast<size_t>(Start[G + 1]) <= I)
      ++G;
    bool Ok = W.GlobalId >= 0 && W.GlobalId < NumEligible &&
              (Start.empty() || W.GlobalId == static_cast<int>(G)) &&
              InGraph(W.Nodes) && InGraph(W.WrapIndirect);
    for (int N : W.EntryNodes)
      Ok = Ok && N >= 0 && N < Universe;
    for (const auto &[Node, Set] : W.WrapEdges)
      Ok = Ok && Node >= 0 && Node < Universe && InGraph(Set);
    if (!Ok)
      return Fail("web " + std::to_string(I) +
                  " lies outside the rebuilt graph");
  }

  State->Webs = std::move(Run.Webs);
  State->WebStart = std::move(Run.WebStart);
  return true;
}
