//===- opt_schedule_test.cpp - Change-driven pass scheduling fence --------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The level-2 round loop skips a pass that changed nothing when it last
/// ran if no pass has changed the function since. This fence keeps the
/// loop that rule replaced — all seven passes in every round — and
/// checks that optimizeFunction gives the same IR byte for byte, in the
/// same number of rounds and with the same number of changing pass
/// runs, on every function of the corpus programs and of generated
/// programs, with local global promotion on and off.
///
//===----------------------------------------------------------------------===//

#include "../property/ProgramGen.h"
#include "BenchSupport.h"
#include "TestUtil.h"

#include "analysis/PointsTo.h"
#include "driver/Driver.h"
#include "opt/Passes.h"
#include "support/Record.h"

#include <gtest/gtest.h>

using namespace ipra;

namespace {

/// The reference round loop: every pass in every round.
OptStats everyPassRounds(IRFunction &F, int MaxRounds) {
  OptStats Stats;
  for (int Round = 0; Round < MaxRounds; ++Round) {
    ++Stats.Rounds;
    bool Changed = false;
    for (auto Pass : {simplifyInstructions, propagateConstantsAndCopies,
                      localCSE, eliminateDeadStores, hoistLoopInvariants,
                      eliminateDeadCode, simplifyCFG}) {
      ++Stats.PassRuns;
      if (Pass(F)) {
        ++Stats.PassChanges;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
  return Stats;
}

/// optimizeFunction over the reference loop.
OptStats everyPassOptimize(IRFunction &F, const OptOptions &Options) {
  OptStats Stats = everyPassRounds(F, 8);
  if (Options.LocalGlobalPromotion && promoteGlobalsLocally(F, Options))
    record::add(Stats, everyPassRounds(F, 2));
  return Stats;
}

/// Optimizes every function of \p Sources plus the runtime module both
/// ways and compares; returns the pass runs of both loops.
std::pair<unsigned long long, unsigned long long>
expectSameAsEveryPass(const std::string &Program,
                      std::vector<SourceFile> Sources) {
  unsigned long long Runs = 0, EveryPassRuns = 0;
  Sources.push_back(SourceFile{"__runtime.mc", runtimeModuleSource()});
  for (const SourceFile &Src : Sources) {
    DiagnosticEngine Diags;
    auto IR = test::compileToIR(Src.Name, Src.Text, Diags);
    EXPECT_TRUE(IR) << Program << " " << Src.Name << ": "
                    << Diags.renderAll();
    if (!IR)
      continue;
    ModulePointsTo PT(*IR);
    for (bool Promote : {true, false}) {
      OptOptions Options;
      Options.LocalGlobalPromotion = Promote;
      Options.Alias = &PT;
      auto Got = IR->clone();
      auto Want = IR->clone();
      for (size_t I = 0; I < IR->Functions.size(); ++I) {
        IRFunction &G = *Got->Functions[I], &W = *Want->Functions[I];
        OptStats Stats = optimizeFunction(G, Options);
        OptStats Every = everyPassOptimize(W, Options);
        std::string Where = Program + " " + Src.Name + " " + G.Name +
                            (Promote ? " (promotion on)" : " (promotion off)");
        EXPECT_EQ(G.toString(), W.toString()) << Where;
        EXPECT_EQ(Stats.Rounds, Every.Rounds) << Where;
        EXPECT_EQ(Stats.PassChanges, Every.PassChanges) << Where;
        EXPECT_LE(Stats.PassRuns, Every.PassRuns) << Where;
        Runs += Stats.PassRuns;
        EveryPassRuns += Every.PassRuns;
      }
    }
  }
  return {Runs, EveryPassRuns};
}

TEST(PassScheduleTest, CorpusMatchesEveryPassEveryRound) {
  unsigned long long Runs = 0, EveryPassRuns = 0;
  for (const bench::ProgramInfo &P : bench::programList()) {
    auto [R, E] = expectSameAsEveryPass(P.Name, bench::loadProgram(P.Name));
    Runs += R;
    EveryPassRuns += E;
  }
  // Skipping must happen, or the fence checks only the reference loop.
  EXPECT_LT(Runs, EveryPassRuns);
}

TEST(PassScheduleTest, GeneratedProgramsMatchEveryPassEveryRound) {
  unsigned long long Runs = 0, EveryPassRuns = 0;
  for (unsigned Seed = 0; Seed < 30; ++Seed) {
    auto [R, E] = expectSameAsEveryPass("seed " + std::to_string(Seed),
                                        test::generateRandomProgram(Seed));
    Runs += R;
    EveryPassRuns += E;
  }
  EXPECT_LT(Runs, EveryPassRuns);
}

} // namespace
