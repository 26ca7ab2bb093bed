//===- WebColor.h - Web interference graph coloring ------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coloring of the web interference graph (§4.1.3): webs that share a
/// call-graph node interfere and must receive different callee-saves
/// registers. Three strategies from the paper's evaluation:
///
///  - K-register coloring (Table 4 column C/F): a reserved pool of
///    callee-saves registers (6 by default) is allocated to webs in
///    priority order;
///  - greedy coloring (column D): any callee-saves register may be used,
///    but never one that would cut into the callee-saves registers an
///    individual procedure itself needs;
///  - blanket promotion (column E, the [Wall 86] baseline): the hottest
///    globals each get a register dedicated across the entire program.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CORE_WEBCOLOR_H
#define IPRA_CORE_WEBCOLOR_H

#include "core/Webs.h"
#include "target/Registers.h"

namespace ipra {

/// Coloring statistics (the §6.2 narrative numbers).
struct WebColorStats {
  int TotalWebs = 0;
  int Considered = 0;
  int Colored = 0;
};

/// Assigns registers from \p Pool to considered webs in priority order.
WebColorStats colorWebsKRegisters(std::vector<Web> &Webs,
                                  const CallGraph &CG, RegMask Pool);

/// Greedy coloring over all 16 callee-saves registers, refusing any
/// assignment that would leave a procedure with fewer callee-saves
/// registers than its own estimated need.
WebColorStats colorWebsGreedy(std::vector<Web> &Webs, const CallGraph &CG);

/// Builds blanket-promotion "webs": the \p Count highest-frequency
/// eligible globals each get one register from \p Pool, dedicated over
/// every node of the call graph; the start nodes act as web entries.
/// Returns the replacement web list (already colored). With \p MR, an
/// exactly read-only global's web does not modify it (no writeback).
std::vector<Web> buildBlanketWebs(const CallGraph &CG, const RefSets &RS,
                                  int Count, RegMask Pool,
                                  const ModRefInfo *MR = nullptr);

/// Verification helper: interfering webs must have distinct registers;
/// every colored web's register must be callee-saves.
std::vector<std::string> checkColoring(const std::vector<Web> &Webs);

} // namespace ipra

#endif // IPRA_CORE_WEBCOLOR_H
