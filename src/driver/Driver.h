//===- Driver.h - Runtime module and link-time allocation ------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver pieces that sit outside the Pipeline facade (Pipeline.h,
/// which runs the phases of Figure 1): the MiniC runtime module every
/// program links against, and §7.1's link-time alternative to the
/// two-pass scheme.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_DRIVER_DRIVER_H
#define IPRA_DRIVER_DRIVER_H

#include "driver/PipelineConfig.h"
#include "link/LinkOpt.h"
#include "link/Object.h"

#include <string>
#include <vector>

namespace ipra {

/// The MiniC runtime module source (provides __prints).
const char *runtimeModuleSource();

/// §7.1's alternative to the whole two-pass scheme: compile every module
/// at the level-2 baseline - no summary files, no analyzer, no program
/// database - and let the LINKER perform interprocedural register
/// allocation by rewriting the finished objects ([Wall 86]). See
/// link/LinkOpt.h for what the rewriter can and cannot recover compared
/// to the paper's approach.
struct WallCompileResult {
  bool Success = false;
  std::string ErrorText;
  Executable Exe;
  LinkAllocStats LinkStats;
};
WallCompileResult
compileWallStyle(const std::vector<SourceFile> &Sources,
                 const LinkAllocOptions &Options = LinkAllocOptions());

} // namespace ipra

#endif // IPRA_DRIVER_DRIVER_H
