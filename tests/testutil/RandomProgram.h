//===- RandomProgram.h - Seeded random summary programs --------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A randomized multi-module program at the summary level, for the
/// analyzer suites that compare two implementations on many graphs:
/// layered intra-module call DAGs with back edges (recursion, including
/// self-loops), cross-module calls to exported procedures, static
/// procedures and globals (the §7.4 filter), address-taken procedures
/// plus indirect callers (split wrap logic), stores, and a few
/// procedures unreachable from main.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_TESTS_RANDOMPROGRAM_H
#define IPRA_TESTS_RANDOMPROGRAM_H

#include "summary/Summary.h"

#include <vector>

namespace ipra::test {

/// The size ranges a suite draws from. Each count is Min + a draw below
/// Span; the fields are listed in draw order.
struct ProgramShape {
  struct Range {
    int Min, Span;
  };
  Range Modules, ProcsPerModule, Globals;
  /// Whether each procedure draws a CallerRegsUsed mask (§7.6.2).
  bool DrawCallerRegs = false;
  Range IndirectCallers;
};

/// The program \p Shape and \p Seed determine.
std::vector<ModuleSummary> randomProgram(const ProgramShape &Shape,
                                         unsigned Seed);

} // namespace ipra::test

#endif // IPRA_TESTS_RANDOMPROGRAM_H
