//===- GlobalPromote.cpp - Intraprocedural global promotion ---------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// The level-2 baseline behaviour the paper describes in §4.1: "Many
/// optimizers are able to promote global variables to registers locally
/// within a procedure. ... Before procedure calls and at the exit point,
/// the optimizer must insert instructions to store the register
/// containing the promoted global variable back to memory. Similarly, at
/// the entry point and just after procedure returns, the optimizer must
/// insert instructions to load the promoted global variable."
///
/// Kill points where the promoted register must be synchronized with
/// memory: direct/indirect calls (store before if the function ever
/// stores the global, reload after), StPtr (same, a pointer may alias any
/// global), and LdPtr (store before only). Promotion is applied when the
/// loop-weighted reference count exceeds the synchronization cost.
///
/// When OptOptions::Alias carries points-to facts, a call or pointer
/// dereference proven unable to touch a candidate stops being a kill
/// point for it: no store/reload is emitted around it and it does not
/// count toward the synchronization cost. Ret always synchronizes — the
/// memory home must be current whenever the function returns. With no
/// facts every kill point kills every candidate, byte for byte the
/// behaviour described above.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/CFG.h"

#include <map>

using namespace ipra;

namespace {

struct Candidate {
  long long RefWeight = 0;   ///< Loop-weighted loads+stores.
  long long KillWeight = 0;  ///< Loop-weighted kill points + exits.
  bool HasStore = false;
};

} // namespace

bool ipra::promoteGlobalsLocally(IRFunction &F, const OptOptions &Options) {
  CFGInfo CFG(F);

  // Does kill instruction I synchronize candidate Name? Ret always
  // does; with no alias facts everything does.
  auto Kills = [&](const IRInstr &I, const std::string &Name) {
    if (I.Op == IROp::Ret || !Options.Alias)
      return true;
    if (I.Op == IROp::Call)
      return Options.Alias->callMayTouch(I.Sym, Name);
    if (I.Op == IROp::CallInd)
      return Options.Alias->indirectCallMayTouch(F.Name, Name);
    return Options.Alias->derefMayTouch(F.Name, Name);
  };

  // Gather candidates: globals accessed via LdG/StG (always scalars; the
  // front end never emits LdG for arrays).
  std::map<std::string, Candidate> Candidates;
  std::vector<std::pair<const IRInstr *, long long>> KillPoints;
  for (const auto &B : F.Blocks) {
    if (!CFG.isReachable(B->Id))
      continue;
    long long W = CFG.blockFrequency(B->Id);
    for (const IRInstr &I : B->Instrs) {
      if (I.Op == IROp::LdG) {
        Candidates[I.Sym].RefWeight += W;
      } else if (I.Op == IROp::StG) {
        Candidates[I.Sym].RefWeight += W;
        Candidates[I.Sym].HasStore = true;
      } else if (I.isCall() || I.Op == IROp::StPtr || I.Op == IROp::LdPtr ||
                 I.Op == IROp::Ret) {
        KillPoints.emplace_back(&I, W);
      }
    }
  }
  if (Candidates.empty())
    return false;

  // Decide which globals to promote.
  std::map<std::string, unsigned> Promoted; // Name -> home vreg.
  for (auto &[Name, C] : Candidates) {
    if (Options.SkipGlobals.count(Name))
      continue;
    for (const auto &[I, W] : KillPoints)
      if (Kills(*I, Name))
        C.KillWeight += W;
    // Cost: entry load (1) plus a store+load pair at each kill point.
    long long Cost = 1 + C.KillWeight * (C.HasStore ? 2 : 1);
    if (C.RefWeight > Cost)
      Promoted[Name] = F.newVReg();
  }
  if (Promoted.empty())
    return false;

  // Rewrite every block.
  for (auto &B : F.Blocks) {
    std::vector<IRInstr> Out;
    Out.reserve(B->Instrs.size());

    // Load/store sync around a kill point, restricted to the candidates
    // the instruction can actually touch (all of them without facts).
    auto EmitLoadFor = [&](const std::vector<std::pair<std::string, unsigned>>
                               &Names) {
      for (const auto &[Name, Home] : Names) {
        IRInstr Ld;
        Ld.Op = IROp::LdG;
        Ld.Sym = Name;
        Ld.HasDst = true;
        Ld.Dst = Home;
        Out.push_back(std::move(Ld));
      }
    };
    auto EmitStoreDirty = [&](const IRInstr &Killer) {
      for (const auto &[Name, Home] : Promoted) {
        if (!Candidates[Name].HasStore || !Kills(Killer, Name))
          continue;
        IRInstr St;
        St.Op = IROp::StG;
        St.Sym = Name;
        St.Srcs = {Home};
        Out.push_back(std::move(St));
      }
    };

    if (B->Id == 0) {
      // Entry: load every promoted global.
      EmitLoadFor({Promoted.begin(), Promoted.end()});
    }

    for (IRInstr &I : B->Instrs) {
      auto It = I.Op == IROp::LdG || I.Op == IROp::StG
                    ? Promoted.find(I.Sym)
                    : Promoted.end();
      if (I.Op == IROp::LdG && It != Promoted.end()) {
        Out.push_back(copyInstr(I.Dst, It->second));
        continue;
      }
      if (I.Op == IROp::StG && It != Promoted.end()) {
        Out.push_back(copyInstr(It->second, I.Srcs[0]));
        continue;
      }
      if (I.isCall() || I.Op == IROp::StPtr) {
        EmitStoreDirty(I);
        std::vector<std::pair<std::string, unsigned>> Reload;
        for (const auto &[Name, Home] : Promoted)
          if (Kills(I, Name))
            Reload.emplace_back(Name, Home);
        Out.push_back(std::move(I));
        EmitLoadFor(Reload);
        continue;
      }
      if (I.Op == IROp::LdPtr || I.Op == IROp::Ret) {
        EmitStoreDirty(I);
        Out.push_back(std::move(I));
        continue;
      }
      Out.push_back(std::move(I));
    }
    B->Instrs = std::move(Out);
  }
  return true;
}
