//===- Gen.h - Seeded input generators for perfbench ------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's two input generators. Both take the workload seed.
///
///  - A modular synthetic *summary* program (analyze-edit): per module a
///    layered DAG of procedures whose deepest layer bridges into the next
///    module, main fanning out to every module, and module-owned globals
///    referenced in compact regions — the separately compiled shape the
///    delta analyzer is built for. Edits touch one module's summary.
///
///  - A loop-bounded multi-module MiniC *source* program (service-edit).
///    Every function runs a fixed-trip loop and calls only the next
///    function of its module and, once per module, the next module's
///    leaf, so the call tree is finite and the work per round is nearly
///    the same for every seed; main drives every module's entry for a
///    fixed number of rounds and prints a checksum plus globals. The
///    program is kept as a model so edits re-render only the edited
///    module.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include "driver/PipelineConfig.h"
#include "summary/Summary.h"

#include <random>
#include <string>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Synthetic summary program.
//===----------------------------------------------------------------------===//

struct SummaryShape {
  int Modules = 24;
  int ProcsPerModule = 500;
  int GlobalsPerModule = 10;
};

std::vector<ipra::ModuleSummary> syntheticSummaries(const SummaryShape &Shape,
                                                    unsigned Seed);

/// The three single-module summary edits: a global-reference frequency,
/// a procedure's register need / caller-saves footprint, or a call
/// frequency. The edited value always changes. Returns the edit's name.
const char *editSummary(ipra::ModuleSummary &Module, int Kind,
                        std::mt19937 &Rng);

//===----------------------------------------------------------------------===//
// MiniC source program.
//===----------------------------------------------------------------------===//

struct SourceShape {
  int Modules = 6;
  int FuncsPerModule = 5;
  int GlobalsPerModule = 3;
  int Rounds = 20; ///< Iterations of main's driver loop.
  int Trip = 4;    ///< Trip count of every function's loop.
};

/// One generated function. The seed picks the constants, the loop
/// operator, the branch threshold and which function bridges to the next
/// module; the reference pattern starts fixed (function F accumulates
/// into global F mod N and reads the next one), so the shape and the
/// work per round barely move with the seed. Reference edits move
/// Global.
struct FuncModel {
  int AddConst = 1;           ///< Body-only edit target.
  int Global = 0;             ///< Global the loop accumulates into.
  int ExtraGlobal = 0;        ///< Global both branch arms read.
  int Op = 0;                 ///< Loop operator.
  int Branch = 0;             ///< Branch threshold.
  int Callee = -1;            ///< The next function; -1 for the leaf.
  bool CallsNextLeaf = false; ///< Calls the next module's leaf.
};

struct ModuleModel {
  std::vector<FuncModel> Funcs;
};

struct ProgramModel {
  SourceShape Shape;
  std::vector<ModuleModel> Modules;
};

ProgramModel generateProgram(const SourceShape &Shape, unsigned Seed);

/// The source of module \p M (the last module is main's).
ipra::SourceFile renderModule(const ProgramModel &P, int M);
std::vector<ipra::SourceFile> renderProgram(const ProgramModel &P);

/// Edits one function of a non-main module and returns the module
/// index. A body edit changes only a constant, so the module's summary
/// normally stays put; a reference edit moves a global reference, so
/// the summary (and the analyzer's database) moves.
int bodyEdit(ProgramModel &P, std::mt19937 &Rng);
int refEdit(ProgramModel &P, std::mt19937 &Rng);

} // namespace perfbench

#endif // PERFBENCH_GEN_H
