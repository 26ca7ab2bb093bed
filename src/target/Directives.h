//===- Directives.h - Per-procedure analyzer directives --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzer's output per procedure: the register-set directives of
/// the paper's Section 4 (FREE/CALLER/CALLEE/MSPILL) plus global
/// variable promotion assignments. Phase 2 consults these when
/// recompiling each module; defaults are the standard convention so a
/// procedure absent from the database compiles exactly as phase 1 did.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_TARGET_DIRECTIVES_H
#define IPRA_TARGET_DIRECTIVES_H

#include "target/Registers.h"

#include <string>
#include <vector>

namespace ipra {

/// One global variable promoted to a register over a web of procedures.
struct PromotedGlobal {
  std::string QualName;  ///< Qualified global name, "module.var".
  unsigned Reg = 0;      ///< The register it lives in inside the web.
  bool IsEntry = false;  ///< This procedure is a web entry (loads it).
  bool WebModifies = false; ///< Some procedure in the web stores it.
  bool WrapIndirect = false; ///< Spill/reload around indirect calls.
  std::vector<std::string> WrapCallees; ///< Out-of-web direct callees
                                        ///< needing spill/reload wraps.

  bool operator==(const PromotedGlobal &O) const = default;

  /// The database's `promote` line; `wrap <callee>` lines follow it.
  static void fields(auto &S, auto &V) {
    V.pos("name", S.QualName);
    V.key("reg", S.Reg, pr32::NumRegs - 1);
    V.key("entry", S.IsEntry);
    V.key("modifies", S.WebModifies);
    V.key("wrapind", S.WrapIndirect);
  }
};

/// Register-set directives for one procedure. The defaults are the
/// permissive standard convention; the analyzer tightens them.
struct ProcDirectives {
  /// Callee-saves registers this procedure may use without save/restore
  /// (the paper's FREE set).
  RegMask Free = 0;
  /// Registers to treat as caller-saves at this procedure's call sites.
  RegMask Caller = pr32::callerSavedMask();
  /// Registers to treat as callee-saves in this procedure's body.
  RegMask Callee = pr32::calleeSavedMask();
  /// Callee-saves registers whose saves migrate to this procedure on
  /// behalf of its cluster (the paper's spill code motion).
  RegMask MSpill = 0;
  /// True when this procedure roots a cluster.
  bool IsClusterRoot = false;
  /// Caller-saves registers this procedure's own body may scratch.
  RegMask SelfCallerBudget = pr32::callerSavedMask();
  /// Every register the procedure's call subtree may clobber.
  RegMask SubtreeClobber = pr32::callClobberMask();
  /// True when points-to analysis proved every indirect call in this
  /// procedure targets a function in IndirectTargets. Carried into the
  /// database so post-link checking (--verify-ipra) can narrow the
  /// machine-level BLR edges the same way the analyzer did.
  bool IndTargetsResolved = false;
  /// Qualified names of the proven indirect-call targets, sorted.
  std::vector<std::string> IndirectTargets;
  /// Globals promoted to registers in webs containing this procedure.
  std::vector<PromotedGlobal> Promoted;

  /// Mask of the registers holding promoted globals here.
  RegMask promotedMask() const {
    RegMask Mask = 0;
    for (const PromotedGlobal &P : Promoted)
      Mask |= pr32::maskOf(P.Reg);
    return Mask;
  }

  bool operator==(const ProcDirectives &O) const = default;

  /// The database's `proc <name>` line (support/LineCodec.h); its
  /// `indtarget`, `promote` and `wrap` lines follow, up to `end`.
  static void fields(auto &S, auto &V) {
    V.hex("free", S.Free);
    V.hex("caller", S.Caller);
    V.hex("callee", S.Callee);
    V.hex("mspill", S.MSpill);
    V.key("root", S.IsClusterRoot);
    V.hex("budget", S.SelfCallerBudget);
    V.hex("clobber", S.SubtreeClobber);
    V.key("indresolved", S.IndTargetsResolved);
  }
};

} // namespace ipra

#endif // IPRA_TARGET_DIRECTIVES_H
