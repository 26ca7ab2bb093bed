//===- ProgramGen.h - Random MiniC program generator -----------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded random MiniC program generator for differential testing: the
/// master property is that every analyzer configuration produces a
/// program with identical observable behaviour. Programs are closed,
/// deterministic, and loop-bounded so they always terminate quickly.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_TESTS_PROGRAMGEN_H
#define IPRA_TESTS_PROGRAMGEN_H

#include "driver/PipelineConfig.h"

#include <string>
#include <vector>

namespace ipra::test {

/// Generates a random multi-module MiniC program from \p Seed.
std::vector<SourceFile> generateRandomProgram(unsigned Seed);

} // namespace ipra::test

#endif // IPRA_TESTS_PROGRAMGEN_H
