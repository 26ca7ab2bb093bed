//===- Simulator.h - PR32 interpreter and profiler -------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprets a linked PR32 executable, counting what the paper's
/// evaluation measures: total cycles excluding cache penalties (Table 4)
/// and dynamic singleton memory references (Table 5). It also collects
/// the per-procedure and per-call-edge counts that play the role of the
/// paper's gprof profile data (§6.1, columns B and F).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SIM_SIMULATOR_H
#define IPRA_SIM_SIMULATOR_H

#include "link/Object.h"
#include "support/CallProfile.h"

#include <cstdint>
#include <string>

namespace ipra {

/// Optional cache model. The paper's simulator "did not model a cache,
/// so some of the benefits of interprocedural register allocation are
/// not accounted for" (§6.1); enabling this direct-mapped model lets the
/// cache-effects bench quantify that remark. Costs are charged on top of
/// the base cycle counts.
struct CacheConfig {
  bool Enabled = false;
  int ICacheLines = 128;
  int DCacheLines = 128;
  int LineWords = 8;      ///< Instructions or data words per line.
  int MissPenalty = 20;   ///< Extra cycles per miss.
};

/// Event counters for one run.
struct RunStats {
  long long Cycles = 0;
  long long Instructions = 0;
  long long MemRefs = 0;
  long long SingletonRefs = 0;
  long long Calls = 0;
  long long ICacheMisses = 0; ///< Zero unless the cache model is on.
  long long DCacheMisses = 0;
};

/// Outcome of executing a program.
struct RunResult {
  bool Halted = false;     ///< Reached HALT normally.
  bool OutOfFuel = false;  ///< Cycle budget exhausted.
  std::string Trap;        ///< Non-empty: execution fault description.
  int32_t ExitCode = 0;    ///< main's return value.
  std::string Output;      ///< Everything PRINT/PRINTC produced.
  RunStats Stats;
  ProfileData Profile;
};

/// Runs \p Exe for at most \p FuelCycles cycles, optionally with the
/// cache model enabled.
RunResult runExecutable(const Executable &Exe,
                        long long FuelCycles = 500'000'000,
                        const CacheConfig &Cache = {});

} // namespace ipra

#endif // IPRA_SIM_SIMULATOR_H
