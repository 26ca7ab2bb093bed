//===- Analyzer.cpp - The program analyzer ----------------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"

#include "analysis/GPGCompose.h"
#include "core/AnalyzerInternal.h"
#include "support/LineCodec.h"

#include <algorithm>
#include <cassert>

using namespace ipra;
using analyzer_detail::Clock;
using analyzer_detail::msSince;

AnalyzerOptions AnalyzerOptions::columnA() {
  AnalyzerOptions O;
  O.SpillMotion = true;
  O.Promotion = PromotionMode::None;
  return O;
}

AnalyzerOptions AnalyzerOptions::columnC() {
  AnalyzerOptions O = columnA();
  O.Promotion = PromotionMode::Webs;
  return O;
}

AnalyzerOptions AnalyzerOptions::columnD() {
  AnalyzerOptions O = columnA();
  O.Promotion = PromotionMode::Greedy;
  return O;
}

AnalyzerOptions AnalyzerOptions::columnE() {
  AnalyzerOptions O = columnA();
  O.Promotion = PromotionMode::Blanket;
  return O;
}

ProcDirectives ProgramDatabase::lookup(const std::string &QualName) const {
  auto It = Procs.find(QualName);
  return It == Procs.end() ? ProcDirectives() : It->second;
}

//===----------------------------------------------------------------------===//
// Determinism contract. The analyzer's output (the program database
// text) must be byte-identical for a given input regardless of thread
// count, platform, or allocation behavior — slice hashes drive the
// recompilation avoidance, so any wobble forces spurious phase-2
// recompiles. The invariants, each enforced at its source:
//
//  [D1] NodeSet iterates members in ascending node id — exactly the
//       order std::set<int> would give. Every consumer of Web::Nodes
//       and cluster membership (entry-node order, priority
//       accumulation, directive emission) relies on it.
//  [D2] buildWebs discovers webs per global on a thread pool but
//       concatenates the per-global results in global-id order and
//       only then assigns ids; afterwards Webs[I].Id == I (asserted
//       below). Coloring order and the promoted-globals emission order
//       below both key off that numbering.
//  [D3] ProgramDatabase::Procs is an ordered map keyed by qualified
//       name: serialize() emits procedures in name order.
//  [D4] sliceFor() emits callee-clobber records from an explicitly
//       sorted, deduplicated vector — determinism is by construction,
//       never by container iteration order.
//
// Anything new the analyzer emits must pick one of these mechanisms.
//===----------------------------------------------------------------------===//

namespace {

/// Retained webs carry an earlier run's registers; coloring starts from
/// the unassigned state fresh discovery leaves.
void resetColoring(std::vector<Web> &Webs) {
  for (Web &W : Webs)
    W.AssignedReg = -1;
}

} // namespace

SummarySet ipra::analyzer_detail::strengthened(SummarySet Summaries,
                                               const AnalyzerOptions &Options,
                                               GPGComposeStats &Stats) {
  if (Options.PointsTo != PointsToMode::GPG ||
      !gpgCompositionApplies(*Summaries))
    return Summaries; // Residue-free summaries: Andersen facts.
  auto Copy = std::make_shared<std::vector<ModuleSummary>>(*Summaries);
  strengthenSummariesWithGPG(*Copy, Options.AssumeClosedWorld, &Stats);
  return Copy;
}

ipra::analyzer_detail::AnalysisState::AnalysisState(
    SummarySet Sums, const AnalyzerOptions &Options,
    const CallProfile &Profile, AnalyzerStats &Stats)
    : AnalysisState(std::move(Sums), Options, Profile, Stats, Clock::now()) {}

ipra::analyzer_detail::AnalysisState::AnalysisState(
    SummarySet Sums, const AnalyzerOptions &Options,
    const CallProfile &Profile, AnalyzerStats &Stats, Clock::time_point Start)
    : Summaries(std::move(Sums)),
      CG(*Summaries, Profile, Options.PointsTo != PointsToMode::Off),
      RS(CG, Options.AssumeClosedWorld) {
  Stats.RefSetsMs = msSince(Start);
  if (Options.ModRef) {
    Clock::time_point T0 = Clock::now();
    MR = computeModRef(CG, Options.AssumeClosedWorld);
    Stats.ModRefMs = msSince(T0);
  }
  countInto(Stats);
}

void ipra::analyzer_detail::AnalysisState::countInto(
    AnalyzerStats &Stats) const {
  Stats.EligibleGlobals = RS.numEligible();
  Stats.EscapesRefuted = static_cast<int>(CG.escapesRefuted());
  Stats.IndirectCallersResolved =
      static_cast<int>(CG.indirectCallersResolved());
  Stats.ReadOnlyGlobals = Stats.WriteOnlyGlobals = Stats.DeadGlobals = 0;
  Stats.UninitReadGlobals = Stats.DeadProcs = 0;
  for (const auto &[Qual, V] : MR.Globals) {
    if (!V.Exact)
      continue;
    switch (V.Verdict) {
    case GlobalVerdict::Dead:
      ++Stats.DeadGlobals;
      break;
    case GlobalVerdict::ReadOnly:
      ++Stats.ReadOnlyGlobals;
      break;
    case GlobalVerdict::WriteOnly:
      ++Stats.WriteOnlyGlobals;
      break;
    case GlobalVerdict::ReadWrite:
      break;
    }
    if (V.UninitRead)
      ++Stats.UninitReadGlobals;
  }
  if (MR.HasMain)
    for (const CGNode &Node : CG.nodes())
      if (Node.HasSummary && !MR.entryReachable(Node.Id) &&
          !Node.QualName.ends_with(":.data"))
        ++Stats.DeadProcs;
}

std::unique_ptr<analyzer_detail::AnalysisState>
ipra::analyzer_detail::analyzeCold(SummarySet Summaries,
                                   const AnalyzerOptions &Options,
                                   const CallProfile &Profile,
                                   AnalyzerStats &Stats) {
  auto State = std::make_unique<AnalysisState>(std::move(Summaries), Options,
                                               Profile, Stats);
  Clock::time_point T0 = Clock::now();
  switch (Options.Promotion) {
  case PromotionMode::None:
    return State;
  case PromotionMode::Webs:
  case PromotionMode::Greedy:
    State->Webs = buildWebs(State->CG, State->RS, Options,
                            State->modRef(Options), &State->WebStart);
    break;
  case PromotionMode::Blanket:
    State->Webs = buildBlanketWebs(State->CG, State->RS, Options.WebPool,
                                   State->modRef(Options));
    break;
  }
  Stats.WebsMs = msSince(T0);
  return State;
}

ProgramDatabase ipra::analyzer_detail::finishFromWebs(
    AnalysisState &State, const AnalyzerOptions &Options,
    AnalyzerStats &LocalStats) {
  const CallGraph &CG = State.CG;
  const RefSets &RS = State.RS;
  std::vector<Web> &Webs = State.Webs;
  Clock::time_point T0;

  // --- Promotion coloring (§4.1.3) ----------------------------------------
  switch (Options.Promotion) {
  case PromotionMode::None:
    break;
  case PromotionMode::Webs: {
    resetColoring(Webs);
    T0 = Clock::now();
    WebColorStats WC = colorWebsKRegisters(Webs, CG, Options.WebPool);
    LocalStats.ColoringMs = msSince(T0);
    LocalStats.TotalWebs = WC.TotalWebs;
    LocalStats.ConsideredWebs = WC.Considered;
    LocalStats.ColoredWebs = WC.Colored;
    for (const Web &W : Webs) {
      if (W.IsSplit)
        ++LocalStats.SplitWebs;
      if (W.IsRemerged)
        ++LocalStats.RemergedWebs;
    }
    break;
  }
  case PromotionMode::Greedy: {
    resetColoring(Webs);
    T0 = Clock::now();
    WebColorStats WC = colorWebsGreedy(Webs, CG);
    LocalStats.ColoringMs = msSince(T0);
    LocalStats.TotalWebs = WC.TotalWebs;
    LocalStats.ConsideredWebs = WC.Considered;
    LocalStats.ColoredWebs = WC.Colored;
    break;
  }
  case PromotionMode::Blanket:
    // Blanket webs arrive pre-colored from discovery.
    LocalStats.TotalWebs = static_cast<int>(Webs.size());
    LocalStats.ConsideredWebs = LocalStats.TotalWebs;
    LocalStats.ColoredWebs = LocalStats.TotalWebs;
    break;
  }

  // --- Spill code motion (§4.2) -------------------------------------------
  std::vector<Cluster> Clusters;
  std::vector<ProcDirectives> Sets;
  if (Options.SpillMotion) {
    T0 = Clock::now();
    Clusters = identifyClusters(CG, Options.AssumeClosedWorld);
    LocalStats.ClustersMs = msSince(T0);
    T0 = Clock::now();
    Sets = computeRegisterSets(CG, Clusters, Webs, Options);
    LocalStats.RegSetsMs = msSince(T0);
    LocalStats.NumClusters = static_cast<int>(Clusters.size());
    for (const Cluster &C : Clusters) {
      int Size = static_cast<int>(C.Members.size()) + 1;
      LocalStats.TotalClusterNodes += Size;
      LocalStats.MaxClusterSize = std::max(LocalStats.MaxClusterSize, Size);
    }
  } else {
    Sets.assign(CG.size(), ProcDirectives());
    // Webs alone still reserve their registers below.
  }

  // --- §7.6.2 caller-saves pre-allocation (optional) -----------------------
  // Bottom-up over the SCC condensation: a procedure's subtree clobber is
  // its own caller-saves budget plus everything its callees may clobber.
  std::vector<RegMask> SelfBudget(CG.size(), pr32::callerSavedMask());
  std::vector<RegMask> SubtreeClobber(CG.size(), pr32::callClobberMask());
  if (Options.CallerSavePropagation) {
    for (const CGNode &Node : CG.nodes()) {
      // Unsummarized procedures stay worst-case.
      SelfBudget[Node.Id] = Node.HasSummary
                                ? (Node.CallerRegsUsed &
                                   pr32::callerSavedMask())
                                : pr32::callerSavedMask();
      SubtreeClobber[Node.Id] = SelfBudget[Node.Id] |
                                pr32::maskOf(pr32::RP) |
                                pr32::maskOf(pr32::RV);
    }
    // Callees' SCCs come first. The members of a cyclic SCC reach one
    // another, so they share one mask.
    for (int Scc = 0; Scc < CG.numSccs(); ++Scc) {
      RegMask Mask = 0;
      for (int N : CG.sccMembers(Scc)) {
        Mask |= SubtreeClobber[N];
        for (int S : CG.node(N).Succs)
          Mask |= SubtreeClobber[S];
      }
      for (int N : CG.sccMembers(Scc))
        SubtreeClobber[N] = Mask;
    }
  }

  // --- Assemble the database (§4.3) ---------------------------------------
  // Per-node occupancy index: which colored webs cover each node. One
  // pass over the webs replaces a webs x nodes membership scan, and
  // appending in web-id order ([D2]) reproduces the emission order the
  // old all-webs-per-node loop had.
  for (size_t I = 0; I < Webs.size(); ++I)
    assert(Webs[I].Id == static_cast<int>(I) &&
           "buildWebs must number webs by vector index [D2]");
  std::vector<std::vector<int>> PromotedAt(CG.size());
  for (const Web &W : Webs)
    if (W.AssignedReg >= 0)
      for (int N : W.Nodes)
        PromotedAt[N].push_back(W.Id);

  ProgramDatabase DB;
  for (const CGNode &Node : CG.nodes()) {
    ProcDirectives Dir = Sets[Node.Id];
    if (Options.CallerSavePropagation) {
      Dir.SelfCallerBudget = SelfBudget[Node.Id];
      Dir.SubtreeClobber = SubtreeClobber[Node.Id];
    }
    if (CG.indirectResolved(Node.Id)) {
      // Publish the proven targets so post-link checking can narrow
      // the machine-level BLR edges the same way the analyzer did.
      Dir.IndTargetsResolved = true;
      for (int T : CG.indirectTargetsOf(Node.Id))
        Dir.IndirectTargets.push_back(CG.node(T).QualName);
      std::sort(Dir.IndirectTargets.begin(), Dir.IndirectTargets.end());
    }
    for (int WebId : PromotedAt[Node.Id]) {
      const Web &W = Webs[WebId];
      PromotedGlobal P;
      P.QualName = RS.globalName(W.GlobalId);
      P.Reg = static_cast<unsigned>(W.AssignedReg);
      P.IsEntry = std::find(W.EntryNodes.begin(), W.EntryNodes.end(),
                            Node.Id) != W.EntryNodes.end();
      P.WebModifies = W.Modifies;
      if (W.IsSplit) {
        auto WrapIt = W.WrapEdges.find(Node.Id);
        if (WrapIt != W.WrapEdges.end())
          for (int S : WrapIt->second)
            P.WrapCallees.push_back(CG.node(S).QualName);
        P.WrapIndirect = W.WrapIndirect.count(Node.Id) != 0;
      }
      Dir.Promoted.push_back(std::move(P));
    }
    DB.insert(Node.QualName, std::move(Dir));
  }

  // Publish the §15 verdicts (format v5). ModRefInfo::Globals is an
  // ordered map, so emission order is deterministic by construction
  // (the [D3] mechanism).
  if (const ModRefInfo *MR = State.modRef(Options))
    for (const auto &[Qual, V] : MR->Globals)
      DB.ModRefs.emplace(
          Qual, GlobalVerdictRecord{static_cast<int>(V.Verdict), V.Exact,
                                    V.UninitRead});

  return DB;
}

ProgramDatabase ipra::runAnalyzer(
    const std::vector<ModuleSummary> &Summaries,
    const AnalyzerOptions &Options, const CallProfile &Profile,
    AnalyzerStats *Stats) {
  // The caller's vector, shared without ownership: it outlives the call,
  // and off/Andersen mode analyzes it without a copy.
  SummarySet Borrowed(SummarySet(), &Summaries);
  AnalyzerStats LocalStats;
  std::unique_ptr<analyzer_detail::AnalysisState> State =
      analyzer_detail::analyzeCold(
          analyzer_detail::strengthened(Borrowed, Options, LocalStats.GPG),
          Options, Profile, LocalStats);
  ProgramDatabase DB =
      analyzer_detail::finishFromWebs(*State, Options, LocalStats);
  if (Stats)
    *Stats = LocalStats;
  return DB;
}

//===----------------------------------------------------------------------===//
// Database serialization.
//
//   ipra-db-format <version> config=<fingerprint|->
//   modref <qual> verdict=<0|1|2|3> exact=<0|1> uninit=<0|1>
//   proc <qual> free=<hex> caller=<hex> callee=<hex> mspill=<hex> root=<0|1>
//   indtarget <qual>
//   promote <qual> reg=<n> entry=<0|1> modifies=<0|1>
//   end
//
/// Version 3 added the points-to fields: indresolved=<0|1> on the proc
// line and one indtarget record per proven indirect-call target.
// Readers default them to the conservative values when absent. The
// header line is required. Version 4 (no layout change)
// marks databases derived from summary-format-v4 facts — possibly
// strengthened by the composed GPG pass — so v3 readers reject them
// with the versioned diagnostic instead of silently mixing fact
// families. Version 5 added the per-global modref records (the §15
// verdicts; emitted before the proc records, absent when the analysis
// is off). They are not part of any module's slice — phase 2 reads the
// promote records' modifies bit, not the verdicts.
//===----------------------------------------------------------------------===//

std::vector<std::string>
ProgramDatabase::diff(const ProgramDatabase &Old,
                      const ProgramDatabase &New) {
  std::vector<std::string> Changed;
  for (const auto &[Name, Dir] : New.procs()) {
    auto It = Old.procs().find(Name);
    if (It == Old.procs().end() || !(It->second == Dir))
      Changed.push_back(Name);
  }
  for (const auto &[Name, Dir] : Old.procs())
    if (!New.procs().count(Name))
      Changed.push_back(Name);
  std::sort(Changed.begin(), Changed.end());
  return Changed;
}

namespace {

/// One proc's directive record in the database text format. Shared by
/// serialize() and sliceFor() so slice hashes track the file format.
void writeProcRecord(std::string &Out, const std::string &Name,
                     const ProcDirectives &Dir) {
  codec::write(Out, "proc", Dir, codec::named(Name));
  for (const std::string &T : Dir.IndirectTargets)
    codec::write(Out, "indtarget", T);
  for (const PromotedGlobal &P : Dir.Promoted) {
    codec::write(Out, "promote", P);
    for (const std::string &Callee : P.WrapCallees)
      codec::write(Out, "wrap", Callee);
  }
  Out += "end\n";
}

/// The database's record kinds and the kind each belongs to.
enum DatabaseKind { ModRef, Proc, IndTarget, Promote, Wrap };
constexpr codec::Kind DatabaseKinds[] = {{"modref"},
                                         {"proc", -1, true},
                                         {"indtarget", Proc},
                                         {"promote", Proc},
                                         {"wrap", Promote}};

} // namespace

std::string ProgramDatabase::serialize() const {
  std::string Out;
  codec::writeHeader(Out, "ipra-db-format", DatabaseFormatVersion,
                     ConfigFingerprint);
  for (const auto &[Name, V] : ModRefs)
    codec::write(Out, "modref", V, codec::named(Name));
  for (const auto &[Name, Dir] : Procs)
    writeProcRecord(Out, Name, Dir);
  return Out;
}

std::string ProgramDatabase::sliceFor(const ModuleSummary &Summary,
                                      bool IncludeCalleeClobbers) const {
  std::string Out;
  // The module's own procedures, in module order. A procedure missing
  // from the database serializes as the standard convention, so a proc
  // appearing in or vanishing from the database changes the slice.
  for (const ProcSummary &P : Summary.Procs)
    writeProcRecord(Out, P.QualName, lookup(P.QualName));
  // With §7.6.2 caller-saves propagation, codegen also reads the
  // subtree clobber mask of every direct callee. The slice text is
  // hashed for recompilation avoidance, so the records are emitted
  // from an explicitly sorted, deduplicated list ([D4]) rather than
  // relying on a container's iteration order.
  if (IncludeCalleeClobbers) {
    std::vector<std::string> Callees;
    for (const ProcSummary &P : Summary.Procs)
      for (const CallSummary &C : P.Calls)
        Callees.push_back(C.QualCallee);
    std::sort(Callees.begin(), Callees.end());
    Callees.erase(std::unique(Callees.begin(), Callees.end()),
                  Callees.end());
    for (const std::string &C : Callees) {
      ((Out += "clobber ") += C) += ' ';
      codec::appendHex(Out, lookup(C).SubtreeClobber);
      Out += '\n';
    }
  }
  return Out;
}

bool ProgramDatabase::deserialize(const std::string &Text,
                                  ProgramDatabase &Out, std::string &Error) {
  Out = ProgramDatabase();
  codec::LineReader L(Text);
  if (!codec::readHeader(L, "ipra-db-format", DatabaseFormatVersion,
                         "database", Out.ConfigFingerprint, Error))
    return false;
  std::string Name;
  ProcDirectives *Cur = nullptr;
  auto Record = [&](int Kind) -> bool {
    switch (Kind) {
    case ModRef: {
      GlobalVerdictRecord V;
      return codec::read(L, V, Error, codec::named(Name)) &&
             (Out.ModRefs.try_emplace(Name, V).second ||
              L.fail(Error, "duplicate modref record '" + Name + "'"));
    }
    case Proc: {
      ProcDirectives Dir;
      if (!codec::read(L, Dir, Error, codec::named(Name)))
        return false;
      auto [It, Fresh] = Out.Procs.try_emplace(Name, std::move(Dir));
      Cur = &It->second;
      return Fresh || L.fail(Error, "duplicate proc record '" + Name + "'");
    }
    case IndTarget:
      return codec::read(L, Cur->IndirectTargets.emplace_back(), Error);
    case Promote:
      return codec::read(L, Cur->Promoted.emplace_back(), Error);
    default:
      return codec::read(L, Cur->Promoted.back().WrapCallees.emplace_back(),
                         Error);
    }
  };
  return codec::readRecords(L, DatabaseKinds, Record, Error);
}
