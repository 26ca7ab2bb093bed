//===- AnalyzerOptions.h - The analyzer's one options record ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer's configuration: Table 4's columns A-F (§6.1) plus the
/// §7 extensions, as one flat record. Every stage (web discovery,
/// cluster identification, register sets) reads its knobs from it, and
/// PipelineConfig extends it with the compiler and placement knobs. The
/// §6.2/§7.4 filter thresholds no configuration varies are constants
/// next to the code that reads them (Webs.h, Clusters.h).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_ANALYZEROPTIONS_H
#define IPRA_CORE_ANALYZEROPTIONS_H

#include "summary/Summary.h"
#include "target/Registers.h"

#include <string_view>

namespace ipra {

/// Promotion strategy for the evaluation's configurations (§6.1).
enum class PromotionMode {
  None,    ///< No interprocedural promotion (columns A/B).
  Webs,    ///< K-register web coloring (columns C/F).
  Greedy,  ///< Greedy coloring (column D).
  Blanket, ///< Wall-style blanket promotion (column E).
};

/// PromotionMode's key names, in enumerator order, for the record codec.
inline constexpr const char *PromotionModeNames[] = {"none", "webs",
                                                     "greedy", "blanket"};
inline const char *enumName(PromotionMode M) {
  return PromotionModeNames[static_cast<int>(M)];
}
inline bool enumFromName(std::string_view Name, PromotionMode &M) {
  return enumFromTable(Name, PromotionModeNames, M);
}

/// Analyzer configuration.
struct AnalyzerOptions {
  bool SpillMotion = true;
  PromotionMode Promotion = PromotionMode::Webs;
  /// Registers reserved for web coloring (6 by default, §6.1). Blanket
  /// promotion (column E) gives one register of the pool to each of the
  /// most frequently used globals.
  RegMask WebPool = pr32::defaultWebColoringPool();
  /// §7.6.1: split webs discarded as too sparse into tight sub-webs
  /// that bracket calls toward other reference regions with store/reload
  /// code.
  bool SplitSparseWebs = false;
  /// §7.6.1: re-merge independent webs of one variable when the merged
  /// web (sharing entry nodes higher up) has a better priority than the
  /// pair, "at the expense of extra interferences".
  bool RemergeWebs = false;
  /// §7.6.2: remove web registers from AVAIL only at nodes the web
  /// covers, instead of at the whole cluster.
  bool RelaxWebAvail = false;
  /// §7.6.2: add root-spilled registers unused downstream to FREE.
  bool ImprovedFreeSets = false;
  /// §7.6.2 extension: publish per-procedure caller-saves budgets and
  /// per-callee subtree clobber masks so callers can keep values live in
  /// caller-saves registers across calls that do not use them.
  bool CallerSavePropagation = false;
  /// §7.2: false when the analyzed modules are only part of the program
  /// (e.g. a library): only statics are promotable, externally visible
  /// procedures join no web interior and no cluster, and webs whose
  /// non-entry nodes are externally visible are discarded (an unknown
  /// caller could enter the web bypassing its entries).
  bool AssumeClosedWorld = true;
  /// Which points-to facts to consume. Off ignores the summary fields
  /// entirely, reproducing the paper's conservative analysis (on
  /// fact-free summaries the output is identical either way). Andersen
  /// consumes the per-module escape verdicts and resolved indirect
  /// target sets as phase 1 recorded them. GPG additionally composes
  /// the summaries' per-procedure GPG residues bottom-up
  /// (GPGCompose.h) and strengthens those facts first — never weaker
  /// than Andersen; falls back to the recorded facts when any summary
  /// lacks a residue.
  PointsToMode PointsTo = PointsToMode::GPG;
  /// Whole-program mod/ref & constancy analysis (DESIGN.md §15,
  /// analysis/ModRef.h): compose the summaries' per-procedure read and
  /// write bits into per-global verdicts, discard webs of exactly-Dead
  /// globals, drop the Modifies bit (exit-sync writeback, wrap stores)
  /// from webs of exactly-ReadOnly globals, and publish the verdicts
  /// as database modref records. Off reproduces the paper's
  /// read-write-assumed promotion (mcc --modref=off).
  bool ModRef = true;
  /// Threads for the parallelizable analyzer stages (per-global web
  /// discovery): 1 runs serially on the calling thread, 0 defers to
  /// IPRA_THREADS / the hardware count. The database is byte-identical
  /// at every value, so NumThreads enters no fingerprint.
  int NumThreads = 1;

  /// Named Table-4 presets (§6.1) for the analyzer side of a
  /// configuration. Columns B and F are A and C with profile data,
  /// which enters through CallProfile rather than these options.
  static AnalyzerOptions columnA(); ///< Spill code motion only.
  static AnalyzerOptions columnC(); ///< + 6-register web coloring.
  static AnalyzerOptions columnD(); ///< + greedy coloring.
  static AnalyzerOptions columnE(); ///< + blanket promotion.

  /// The output-affecting knobs with their keys (support/Json.h's
  /// Record): the one list behind the delta analyzer's option check,
  /// its retained options record and the wire configuration. NumThreads
  /// is left out — the database is byte-identical at every value. A new
  /// knob is its member, one row here and its
  /// PipelineConfig::analyzerFingerprint entry.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("spill-motion", S.SpillMotion);
    V("promotion", S.Promotion);
    V("web-pool", S.WebPool);
    V("split-sparse-webs", S.SplitSparseWebs);
    V("remerge-webs", S.RemergeWebs);
    V("relax-web-avail", S.RelaxWebAvail);
    V("improved-free-sets", S.ImprovedFreeSets);
    V("caller-save-propagation", S.CallerSavePropagation);
    V("assume-closed-world", S.AssumeClosedWorld);
    V("points-to", S.PointsTo);
    V("modref", S.ModRef);
  }
};

} // namespace ipra

#endif // IPRA_CORE_ANALYZEROPTIONS_H
