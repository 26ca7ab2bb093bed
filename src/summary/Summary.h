//===- Summary.h - Compiler-first-phase summary records --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-procedure records the compiler first phase writes to a
/// module's summary file (§3):
///
///  - the global variables accessed, with local access frequencies and
///    flags (aliased references possible, stores present);
///  - the procedures called, with local call frequencies;
///  - procedures whose addresses are computed, and whether this
///    procedure makes indirect calls;
///  - an estimate of the callee-saves registers the procedure needs.
///
/// Frequencies are the loop-nesting heuristics the paper's prototype
/// used (the first phase "was allowed to proceed through the normal code
/// generation and optimization phases ... to obtain better heuristic
/// information", §6 — our driver does the same: it summarizes the
/// optimized IR and a trial code generation supplies the register-need
/// estimate).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUMMARY_SUMMARY_H
#define IPRA_SUMMARY_SUMMARY_H

#include "ir/IR.h"
#include "support/StringUtils.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ipra {

/// One global variable's usage within one procedure.
struct GlobalRefSummary {
  std::string QualName;
  long long Freq = 0;  ///< Loop-weighted access count.
  bool Stores = false; ///< The procedure writes the variable.
  /// The procedure reads the variable (required loads= field, format
  /// v5). Independent of Stores: Freq counts both, which is enough for
  /// promotion priorities but not for the whole-program mod/ref
  /// verdicts (ReadOnly / WriteOnly / Dead).
  bool Loads = false;

  bool operator==(const GlobalRefSummary &O) const = default;

  /// The `ref` line's fields (support/LineCodec.h).
  static void fields(auto &S, auto &V) {
    V.pos("name", S.QualName);
    V.key("freq", S.Freq);
    V.key("stores", S.Stores);
    V.key("loads", S.Loads);
  }
};

/// One direct call target within one procedure.
struct CallSummary {
  std::string QualCallee;
  long long Freq = 0; ///< Loop-weighted local call count.
  /// Argument count at this procedure's call sites to the callee
  /// (required args= field, format v5), -1 when unknown. Within one
  /// module Sema checks every site against the local declaration, so
  /// all sites agree; the linker-level arity lint compares this against
  /// the *defining* module's params= record.
  int Args = -1;

  bool operator==(const CallSummary &O) const = default;

  /// The `call` line's fields.
  static void fields(auto &S, auto &V) {
    V.pos("name", S.QualCallee);
    V.key("freq", S.Freq);
    V.key("args", S.Args);
  }
};

/// Which points-to analysis the pipeline runs (mcc --points-to=MODE).
enum class PointsToMode : uint8_t {
  /// No analysis: summaries carry conservative defaults (the paper's
  /// behaviour).
  Off = 0,
  /// The flow- and context-insensitive Andersen-style per-module pass.
  Andersen = 1,
  /// Andersen plus per-procedure GPG summaries the analyzer composes
  /// bottom-up into flow- and context-sensitive whole-program facts.
  /// Never weaker than Andersen: composed facts are combined with the
  /// per-module verdicts by taking the stronger of the two.
  GPG = 2,
};

/// PointsToMode's printable names, in enumerator order, also the record
/// codec's key names.
inline constexpr const char *PointsToModeNames[] = {"off", "andersen", "gpg"};
inline const char *enumName(PointsToMode Mode) {
  return PointsToModeNames[static_cast<int>(Mode)];
}
inline bool enumFromName(std::string_view Name, PointsToMode &Out) {
  return enumFromTable(Name, PointsToModeNames, Out);
}

/// One generalized points-to update (GPU): the flow-ordered boundary
/// residue of the per-procedure flow-sensitive points-to analysis
/// (summary format v4, GPG mode only). Dst names where a value flows
/// ("g:<qual>" a global's contents, "p:<k>" through parameter k,
/// "a:<site>:<k>" argument k of call site <site>, "r" the return value,
/// "e" the escape sink, "d" a dereference mark), DstLev its indirection
/// depth. Src names the flowing value's channel ("g:"/"f:" address of a
/// global/function, "p:<k>" parameter k, "c:<site>" a call's result,
/// "?" unknown), SrcLev how many loads separate it from the channel.
/// Ord is the emission position in reverse-postorder walk — the flow
/// ordering the analyzer-side composition replays.
struct GPGUpdate {
  std::string Dst;
  int DstLev = 1;
  std::string Src;
  int SrcLev = 0;
  int Ord = 0;

  bool operator==(const GPGUpdate &O) const = default;

  /// The `gpu <dst> <dlev> <src> <slev> ord=<n>` line's fields.
  static void fields(auto &S, auto &V) {
    V.pos("dst", S.Dst);
    V.pos("dlev", S.DstLev);
    V.pos("src", S.Src);
    V.pos("slev", S.SrcLev);
    V.key("ord", S.Ord);
  }
};

/// One call site of the GPG residue: a direct site names its resolved
/// callee (Callee non-empty, Targets empty); an indirect site carries
/// the flow-sensitive value set of its function pointer as
/// "<channel>^<level>" tokens (Callee empty).
struct GPGCallSite {
  int Ord = 0;
  std::string Callee;
  std::vector<std::string> Targets;

  bool operator==(const GPGCallSite &O) const = default;

  /// A direct site's `gpgcall` line (an indirect one is gpgsite).
  static void fields(auto &S, auto &V) {
    V.pos("ord", S.Ord);
    V.pos("callee", S.Callee);
  }
};

/// The module-local points-to/escape analysis verdict for an
/// address-taken global. The conservative default is Escapes; the
/// analyzer may treat a global as unaliased only when *every* module
/// that aliases it reports Refuted.
enum class EscapeVerdict : uint8_t {
  /// The address may leave the module (passed to an extern or
  /// unresolved indirect call, stored through an unknown pointer,
  /// stored into an exported location, returned from an exported
  /// procedure) — or no analysis ran. The Aliased bit stands.
  Escapes = 0,
  /// The address stays inside the module but some in-module indirect
  /// access may reach the global; still aliased.
  ModuleLocal = 1,
  /// The address neither leaves the module nor feeds any in-module
  /// indirect access: every access to the global is a direct
  /// load/store, so the Aliased bit is refuted here.
  Refuted = 2,
};

/// Record for one procedure (§3).
struct ProcSummary {
  std::string QualName;
  std::string Module;
  std::vector<GlobalRefSummary> GlobalRefs;
  std::vector<CallSummary> Calls;
  /// Procedures whose addresses this procedure computes.
  std::vector<std::string> AddressTakenProcs;
  bool MakesIndirectCalls = false;
  long long IndirectCallFreq = 0;
  /// True when the points-to analysis proved that every indirect call
  /// in this procedure targets a function in IndirectTargets; the
  /// analyzer then adds call edges (and wrap decisions) only for those
  /// targets instead of every address-taken procedure (§7.3).
  bool IndTargetsResolved = false;
  /// Qualified names of the proven indirect-call targets, sorted.
  /// Meaningful only when IndTargetsResolved.
  std::vector<std::string> IndirectTargets;
  unsigned CalleeRegsNeeded = 0;
  /// Caller-saves registers the trial code generation used (input to
  /// the §7.6.2 caller-saves pre-allocation extension).
  unsigned CallerRegsUsed = 0;
  /// Declared parameter count (required params= field, format v5), -1
  /// when unknown (the synthetic "<module>:.data" pseudo record). Input
  /// to the cross-module arity-mismatch lint.
  int NumParams = -1;
  /// True when this summary carries the procedure's GPG residue below
  /// (summary format v4, GPG mode). The analyzer composes GPGs only
  /// when every procedure of the program has one.
  bool HasGPG = false;
  /// Flow-ordered generalized points-to updates (GPG mode).
  std::vector<GPGUpdate> GPG;
  /// Call sites referenced by the "a:<site>:<k>" / "c:<site>" channels.
  std::vector<GPGCallSite> GPGSites;

  bool operator==(const ProcSummary &O) const = default;

  /// The `proc` line's fields; the child records follow it, up to `end`.
  static void fields(auto &S, auto &V) {
    V.pos("name", S.QualName);
    V.key("regs", S.CalleeRegsNeeded);
    V.key("indirect", S.MakesIndirectCalls);
    V.key("indfreq", S.IndirectCallFreq);
    V.hex("callerused", S.CallerRegsUsed);
    V.key("indresolved", S.IndTargetsResolved);
    V.key("params", S.NumParams);
    V.opt("gpg", S.HasGPG);
  }
};

/// Module-level facts about a global the analyzer needs for promotion
/// eligibility (§4.1.2) and the statics rule (§7.4).
struct GlobalSummary {
  std::string QualName;
  std::string Module;
  bool IsStatic = false;
  bool IsScalar = false; ///< Single word; arrays are not promotable.
  bool Aliased = false;  ///< Address taken somewhere in this module.
  /// Points-to/escape verdict for the Aliased bit (Escapes when the
  /// analysis did not run).
  EscapeVerdict Escape = EscapeVerdict::Escapes;
  /// Qualified name of the function whose address initializes this
  /// global ('func g = &f;'), empty otherwise. Seeds the analyzer-side
  /// GPG composition (summary format v4).
  std::string FuncInit;
  /// True when the source carries an explicit initializer (required
  /// init= field, format v5). Globals without one are zero-filled at
  /// load; the uninitialized-read lint flags globals that are read but
  /// never written and never explicitly initialized.
  bool HasInit = true;

  bool operator==(const GlobalSummary &O) const = default;

  /// The `global` line's fields (Module comes from the module line).
  static void fields(auto &S, auto &V) {
    V.pos("name", S.QualName);
    V.key("static", S.IsStatic);
    V.key("scalar", S.IsScalar);
    V.key("aliased", S.Aliased);
    V.key("escape", S.Escape, EscapeVerdict::Refuted);
    V.key("init", S.HasInit);
    V.opt("finit", S.FuncInit);
  }
};

/// Version of the textual summary-file format. Serialized files carry
/// it in a header line; readers reject other versions instead of
/// misparsing. Version 4 added the GPG records (gpu/gpgcall/gpgsite,
/// the proc gpg= flag and the global finit= field). Version 5 added the
/// mod/ref and lint fields: ref loads=, proc params=, call args= and
/// global init=.
inline constexpr int SummaryFormatVersion = 5;

/// The summary file for one module.
struct ModuleSummary {
  std::string Module;
  std::vector<ProcSummary> Procs;
  std::vector<GlobalSummary> Globals;
  /// Fingerprint of the compiler configuration that produced this
  /// summary (PipelineConfig::compileFingerprint()). Serialized in the
  /// header line; the analyzer rejects summaries built under a
  /// different configuration. Empty when unknown.
  std::string ConfigFingerprint;

  /// Field-for-field equality. readSummary(writeSummary()) of any
  /// summary equals it, which is why phase 1 hands the summary it built
  /// to the analyzer instead of parsing its text back (the tests prove
  /// it on the corpus).
  bool operator==(const ModuleSummary &O) const = default;
};

/// Per-function facts the trial code generation feeds into the summary.
struct TrialCodeGenInfo {
  unsigned CalleeRegsNeeded = 0;
  unsigned CallerRegsUsed = 0; ///< Mask of caller-saves registers written.
};

/// Builds the summary for \p M (already optimized). \p TrialInfo maps
/// plain function names to the trial code generation's results; missing
/// entries default to zero.
ModuleSummary
buildModuleSummary(const IRModule &M,
                   const std::map<std::string, TrialCodeGenInfo> &TrialInfo);

/// Serializes a summary to the textual summary-file format.
std::string writeSummary(const ModuleSummary &S);

/// Parses a summary file; returns false (and fills \p Error) on
/// malformed input.
bool readSummary(const std::string &Text, ModuleSummary &Out,
                 std::string &Error);

} // namespace ipra

#endif // IPRA_SUMMARY_SUMMARY_H
