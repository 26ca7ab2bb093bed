//===- Analyzer.h - The program analyzer -----------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program analyzer (§4): reads every module's summary file, builds
/// the program call graph, runs global variable promotion followed by
/// spill code motion, and emits the program database consumed by the
/// compiler second phase. By default the analyzer runs on compile-time
/// heuristics; dynamic profile data can be supplied instead (§6.1).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_ANALYZER_H
#define IPRA_CORE_ANALYZER_H

#include "analysis/GPGCompose.h"
#include "analysis/ModRef.h"
#include "core/AnalyzerOptions.h"
#include "core/Clusters.h"
#include "core/RegSets.h"
#include "core/WebColor.h"
#include "core/Webs.h"
#include "summary/Summary.h"
#include "target/Directives.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ipra {

/// The analyzer's observable statistics (the §6.2 narrative).
struct AnalyzerStats {
  int EligibleGlobals = 0;
  int TotalWebs = 0;
  int ConsideredWebs = 0;
  int ColoredWebs = 0;
  int SplitWebs = 0;    ///< Sub-webs produced by §7.6.1 splitting.
  int RemergedWebs = 0; ///< Webs produced by §7.6.1 re-merging.
  int NumClusters = 0;
  int TotalClusterNodes = 0; ///< Members + roots over all clusters.
  int MaxClusterSize = 0;
  /// Globals whose Aliased bit the escape verdicts refuted.
  int EscapesRefuted = 0;
  /// Indirect callers whose call edges were narrowed to proven sets.
  int IndirectCallersResolved = 0;
  /// GPG composition (PointsToMode::GPG; all zero otherwise).
  GPGComposeStats GPG;
  /// Mod/ref verdict census (AnalyzerOptions::ModRef; zero otherwise).
  /// Exact verdicts only — conservative ReadWrite is not counted as
  /// proven anything.
  int ReadOnlyGlobals = 0;
  int WriteOnlyGlobals = 0;
  int DeadGlobals = 0;
  int UninitReadGlobals = 0;
  /// Summarized procedures no call chain from the program entry
  /// reaches (0 when the program has no main).
  int DeadProcs = 0;

  // Sub-phase wall-clock breakdown (milliseconds) of the work the run
  // did: a delta run times only its damage-region work and reports 0
  // for a step it skipped, and a cached analyzer run reports 0 for all
  // of them (the cache entry stores them as zeros, so its bytes are a
  // function of the inputs). The counters above describe the analyzed
  // program whichever way it was analyzed.
  double RefSetsMs = 0;  ///< Call graph + L/P/C_REF dataflow.
  double ModRefMs = 0;   ///< Whole-program mod/ref composition (§15).
  double WebsMs = 0;     ///< Web discovery (parallel per global).
  double ColoringMs = 0; ///< Web interference coloring.
  double ClustersMs = 0; ///< Cluster identification (§4.2).
  double RegSetsMs = 0;  ///< FREE/CALLER/CALLEE/MSPILL (Figure 6).

  double avgClusterSize() const {
    return NumClusters ? static_cast<double>(TotalClusterNodes) /
                             NumClusters
                       : 0.0;
  }

  /// Every field with its key (support/Json.h's Record): the one list
  /// behind the analyzer cache entry and the service wire. A new
  /// counter is its member plus one row here.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("eligible-globals", S.EligibleGlobals);
    V("total-webs", S.TotalWebs);
    V("considered-webs", S.ConsideredWebs);
    V("colored-webs", S.ColoredWebs);
    V("split-webs", S.SplitWebs);
    V("remerged-webs", S.RemergedWebs);
    V("num-clusters", S.NumClusters);
    V("total-cluster-nodes", S.TotalClusterNodes);
    V("max-cluster-size", S.MaxClusterSize);
    V("escapes-refuted", S.EscapesRefuted);
    V("indirect-callers-resolved", S.IndirectCallersResolved);
    V("gpg-composed-procs", S.GPG.ComposedProcs);
    V("gpg-contexts", S.GPG.Contexts);
    V("gpg-refuted-beyond-andersen", S.GPG.RefutedBeyondAndersen);
    V("gpg-resolved-beyond-andersen", S.GPG.ResolvedBeyondAndersen);
    V("read-only-globals", S.ReadOnlyGlobals);
    V("write-only-globals", S.WriteOnlyGlobals);
    V("dead-globals", S.DeadGlobals);
    V("uninit-read-globals", S.UninitReadGlobals);
    V("dead-procs", S.DeadProcs);
    V("refsets-ms", S.RefSetsMs);
    V("modref-ms", S.ModRefMs);
    V("webs-ms", S.WebsMs);
    V("coloring-ms", S.ColoringMs);
    V("clusters-ms", S.ClustersMs);
    V("regsets-ms", S.RegSetsMs);
  }
};

/// Version of the textual program-database format. Serialized files
/// carry it in a header line; readers reject other versions instead of
/// misparsing. Version 5 added the per-global modref records (the §15
/// whole-program verdicts `--verify-ipra` and the stats report read).
inline constexpr int DatabaseFormatVersion = 5;

/// One global's serialized mod/ref verdict (database format v5):
/// the numeric GlobalVerdict plus its exactness and the
/// uninitialized-read flag.
struct GlobalVerdictRecord {
  int Verdict = 3; ///< static_cast<int>(GlobalVerdict), ReadWrite.
  bool Exact = false;
  bool UninitRead = false;

  bool operator==(const GlobalVerdictRecord &O) const = default;

  /// The `modref <global>` line's fields (the name is the map key).
  static void fields(auto &S, auto &V) {
    V.key("verdict", S.Verdict, 3);
    V.key("exact", S.Exact);
    V.key("uninit", S.UninitRead);
  }
};

/// The program database (§4.3): one directive record per procedure.
class ProgramDatabase {
public:
  /// Fingerprint of the pipeline configuration that produced this
  /// database (PipelineConfig::fingerprint()). Serialized in the header
  /// line; phase 2 rejects a database built under a different
  /// configuration. Empty when unknown (config=-, hand-built DBs).
  std::string ConfigFingerprint;

  /// Per-global mod/ref verdicts (database format v5), keyed by
  /// qualified name — an ordered map so serialization is deterministic
  /// ([D3]). Deliberately NOT part of sliceFor(): phase 2 consumes the
  /// promote records' modifies bit, not the verdicts, so verdict-only
  /// churn must not force recompiles. `--verify-ipra` reads them to
  /// prove no store targets a read-only-promoted global's home.
  std::map<std::string, GlobalVerdictRecord> ModRefs;

  /// Directives for \p QualName; the standard convention when absent.
  ProcDirectives lookup(const std::string &QualName) const;

  void insert(const std::string &QualName, ProcDirectives Dir) {
    Procs[QualName] = std::move(Dir);
  }
  const std::map<std::string, ProcDirectives> &procs() const {
    return Procs;
  }

  /// Text serialization (one database file per program, §2). The first
  /// line is a header carrying DatabaseFormatVersion and
  /// ConfigFingerprint.
  std::string serialize() const;
  static bool deserialize(const std::string &Text, ProgramDatabase &Out,
                          std::string &Error);

  /// The part of the database that can affect one module's second-phase
  /// compile (its *database slice*): the directives of the module's own
  /// procedures plus, when \p IncludeCalleeClobbers (the §7.6.2
  /// caller-saves extension), the subtree clobber masks of its direct
  /// callees. Deterministic text — hash it to decide whether a database
  /// change forces the module's phase-2 recompile, the recompilation
  /// avoidance §6 calls for.
  std::string sliceFor(const ModuleSummary &Summary,
                       bool IncludeCalleeClobbers) const;

  /// Smart recompilation (§7.1: "source level changes need to be
  /// tracked carefully and can be very expensive"): the procedures
  /// whose directives differ between two databases. After a source
  /// edit, re-running phase 1 on the changed module and the analyzer on
  /// the summaries yields a new database; only the edited module plus
  /// the procedures named here need a phase-2 recompile - an unchanged
  /// database means the edit was allocation-neutral for every other
  /// module.
  static std::vector<std::string> diff(const ProgramDatabase &Old,
                                       const ProgramDatabase &New);

  /// Field-for-field equality. deserialize(serialize()) of any database
  /// equals it, which is why a pipeline hands its produced database to
  /// phase 2 instead of reading the file back (the tests prove it).
  bool operator==(const ProgramDatabase &O) const = default;

private:
  std::map<std::string, ProcDirectives> Procs;
};

/// A program's parsed summaries, shared read-only: the delta analyzer
/// retains the set it analyzed (to diff the next one against) without
/// copying it.
using SummarySet = std::shared_ptr<const std::vector<ModuleSummary>>;

/// Runs the analyzer over all summaries. \p Profile may be empty.
ProgramDatabase runAnalyzer(const std::vector<ModuleSummary> &Summaries,
                            const AnalyzerOptions &Options,
                            const CallProfile &Profile = {},
                            AnalyzerStats *Stats = nullptr);

} // namespace ipra

#endif // IPRA_CORE_ANALYZER_H
