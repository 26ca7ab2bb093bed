//===- RegAlloc.h - Priority-based graph-coloring allocator ----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intraprocedural register allocator in the priority-based coloring
/// family ([Chow 84]), extended to obey the program analyzer's register
/// usage sets (§4.2.3 / §5):
///
///  - a live range that crosses a call may only receive a FREE or CALLEE
///    register (FREE preferred: the cluster root already spilled it);
///  - a live range that does not cross calls prefers CALLER, then MSPILL
///    (already spilled at this cluster root), then FREE, then CALLEE;
///  - registers dedicated to promoted global webs are excluded entirely;
///  - CALLEE registers actually used are reported so the frame code can
///    save/restore them; FREE/CALLER/MSPILL usage costs no spill code in
///    this procedure.
///
/// Live ranges that cannot be colored are spilled to frame slots and the
/// allocation repeats with short reload/store ranges.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_CODEGEN_REGALLOC_H
#define IPRA_CODEGEN_REGALLOC_H

#include "codegen/MachineFunction.h"
#include "target/Directives.h"

#include <functional>
#include <string>
#include <vector>

namespace ipra {

/// Returns the clobber mask of a direct call to the named procedure.
/// Used by the §7.6.2 caller-saves pre-allocation extension: values may
/// stay in caller-saves registers across calls whose resolved mask does
/// not contain them. A null resolver (the default) means every call
/// clobbers the full caller-saves set.
using CallClobberResolver = std::function<RegMask(const std::string &)>;

/// Outcome of register allocation on one function.
struct RegAllocResult {
  bool Success = false;
  /// CALLEE-set registers the function uses (to be saved/restored by the
  /// frame code).
  RegMask UsedCalleeToSave = 0;
  /// Number of distinct callee-saves registers used for any purpose
  /// (the first phase's register-need estimate, §3).
  unsigned CalleeRegsUsed = 0;
  /// Live ranges spilled to memory.
  unsigned SpillCount = 0;
  /// Interference-build-and-color rounds run (1 + rounds that spilled).
  unsigned Rounds = 0;
};

/// Allocates every virtual register in \p MF to a PR32 physical register
/// under \p Dir, spilling as needed. \p BlockFreq gives the loop-nesting
/// weight of each block (same block ids as MF); pass an empty vector for
/// uniform weights. \p Clobbers resolves per-callee clobber masks for
/// direct calls (§7.6.2); indirect calls always clobber everything.
RegAllocResult allocateRegisters(MachineFunction &MF,
                                 const ProcDirectives &Dir,
                                 const std::vector<long long> &BlockFreq,
                                 const CallClobberResolver &Clobbers = {});

} // namespace ipra

#endif // IPRA_CODEGEN_REGALLOC_H
