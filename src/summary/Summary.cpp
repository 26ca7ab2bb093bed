//===- Summary.cpp - Compiler-first-phase summary records -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "summary/Summary.h"

#include "ir/CFG.h"
#include "support/LineCodec.h"

#include <map>

using namespace ipra;

namespace {

/// Resolves a plain symbol name to its qualified form within \p M.
std::string qualifyIn(const IRModule &M, const std::string &Plain) {
  for (const IRGlobal &G : M.Globals)
    if (G.Name == Plain)
      return G.qualifiedName();
  for (const auto &F : M.Functions)
    if (F->Name == Plain)
      return F->qualifiedName();
  return Plain;
}

} // namespace

ModuleSummary ipra::buildModuleSummary(
    const IRModule &M,
    const std::map<std::string, TrialCodeGenInfo> &TrialInfo) {
  ModuleSummary S;
  S.Module = M.Name;

  for (const IRGlobal &G : M.Globals) {
    GlobalSummary GS;
    GS.QualName = G.qualifiedName();
    GS.Module = M.Name;
    GS.IsStatic = G.IsStatic;
    GS.IsScalar = G.isPromotableShape();
    GS.Aliased = G.AddressTaken;
    GS.HasInit = !G.Init.empty() || !G.FuncInit.empty();
    if (!G.FuncInit.empty())
      GS.FuncInit = qualifyIn(M, G.FuncInit);
    S.Globals.push_back(std::move(GS));
  }

  for (const auto &F : M.Functions) {
    ProcSummary PS;
    PS.QualName = F->qualifiedName();
    PS.Module = M.Name;
    PS.MakesIndirectCalls = F->MakesIndirectCalls;
    PS.NumParams = static_cast<int>(F->NumParams);
    auto EstIt = TrialInfo.find(F->Name);
    if (EstIt != TrialInfo.end()) {
      PS.CalleeRegsNeeded = EstIt->second.CalleeRegsNeeded;
      PS.CallerRegsUsed = EstIt->second.CallerRegsUsed;
    }

    CFGInfo CFG(*F);
    std::map<std::string, GlobalRefSummary> Refs;
    std::map<std::string, CallSummary> Calls;
    std::map<std::string, bool> AddrTaken;

    for (const auto &B : F->Blocks) {
      if (!CFG.isReachable(B->Id))
        continue;
      long long W = CFG.blockFrequency(B->Id);
      for (const IRInstr &I : B->Instrs) {
        switch (I.Op) {
        case IROp::LdG:
        case IROp::StG: {
          std::string Qual = qualifyIn(M, I.Sym);
          GlobalRefSummary &R = Refs[Qual];
          R.QualName = Qual;
          R.Freq += W;
          if (I.Op == IROp::StG)
            R.Stores = true;
          else
            R.Loads = true;
          break;
        }
        case IROp::Call: {
          // Sema checks every site against the local declaration, so
          // all of this procedure's sites to one callee agree on arity.
          CallSummary &C = Calls[qualifyIn(M, I.Sym)];
          C.Freq += W;
          C.Args = static_cast<int>(I.Srcs.size());
          break;
        }
        case IROp::CallInd:
          PS.IndirectCallFreq += W;
          break;
        case IROp::AddrG: {
          // Address of a *function* marks it a possible indirect
          // target. Data globals (including string literals) also come
          // through AddrG and do not count; anything that is neither a
          // module global nor a module function definition must be a
          // function defined in another module (Sema only accepts '&'
          // on declared names), so record it by its plain name.
          bool IsDataGlobal = false;
          for (const IRGlobal &G : M.Globals)
            IsDataGlobal |= G.Name == I.Sym;
          if (!IsDataGlobal)
            AddrTaken[qualifyIn(M, I.Sym)] = true;
          break;
        }
        default:
          break;
        }
      }
    }

    for (auto &[Name, R] : Refs)
      PS.GlobalRefs.push_back(R);
    for (auto &[Name, C] : Calls) {
      C.QualCallee = Name;
      PS.Calls.push_back(C);
    }
    for (auto &[Name, Flag] : AddrTaken)
      if (Flag)
        PS.AddressTakenProcs.push_back(Name);

    S.Procs.push_back(std::move(PS));
  }

  // 'func g = &f;' initializers also take addresses: each target joins
  // the first procedure's address-taken list, or a "<module>:.data"
  // pseudo record when the module has no procedures.
  for (const IRGlobal &G : M.Globals) {
    if (G.FuncInit.empty())
      continue;
    std::string Qual = qualifyIn(M, G.FuncInit);
    if (S.Procs.empty()) {
      ProcSummary Pseudo;
      Pseudo.QualName = M.Name + ":.data";
      Pseudo.Module = M.Name;
      Pseudo.AddressTakenProcs.push_back(Qual);
      S.Procs.push_back(std::move(Pseudo));
    } else {
      auto &List = S.Procs.front().AddressTakenProcs;
      bool Present = false;
      for (const std::string &N : List)
        Present |= N == Qual;
      if (!Present)
        List.push_back(Qual);
    }
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Serialization: one record per line, driven by the records' field lists
// through the line codec (support/LineCodec.h).
//
//   summary-format <version> config=<fingerprint|->
//   module <name>
//   global <qual> static=<0|1> scalar=<0|1> aliased=<0|1> escape=<0|1|2>
//          init=<0|1> [finit=<qual>]
//   proc <qual> regs=<n> indirect=<0|1> indfreq=<n> callerused=<hex8>
//        indresolved=<0|1> params=<n> [gpg=1]
//   ref <qual> freq=<n> stores=<0|1> loads=<0|1>
//   call <qual> freq=<n> args=<n>
//   addrtaken <qual>
//   indtarget <qual>
//   gpu <dst> <dlev> <src> <slev> ord=<n>
//   gpgcall <ord> <qual>
//   gpgsite <ord> [<chan>^<lev> ...]
//   end
//
// The reader takes exactly version 5, header first, and is strict: every
// field is required but the bracketed ones (omitted at their defaults),
// every value must parse in full and in range, and an unknown or
// duplicate field or a child record outside a proc is an error naming
// the line and the field. Version 4 added the GPG residue, version 5 the
// mod/ref and lint fields (loads=, params=, args=, init=).
//===----------------------------------------------------------------------===//

namespace {

/// An indirect GPG call site's `gpgsite` line (a direct one is gpgcall).
constexpr auto SiteFields = [](auto &S, auto &V) {
  V.pos("ord", S.Ord);
  V.rest("target", S.Targets);
};

/// The summary's record kinds and the kind each belongs to.
enum SummaryKind { Module, Global, Proc, Ref, Call, AddrTaken, IndTarget,
                   Gpu, GpgCall, GpgSite };
constexpr codec::Kind SummaryKinds[] = {
    {"module"},          {"global"},      {"proc", -1, true},
    {"ref", Proc},       {"call", Proc},  {"addrtaken", Proc},
    {"indtarget", Proc}, {"gpu", Proc},   {"gpgcall", Proc},
    {"gpgsite", Proc}};

} // namespace

std::string ipra::writeSummary(const ModuleSummary &S) {
  std::string Out;
  codec::writeHeader(Out, "summary-format", SummaryFormatVersion,
                     S.ConfigFingerprint);
  codec::write(Out, "module", S.Module);
  for (const GlobalSummary &G : S.Globals)
    codec::write(Out, "global", G);
  for (const ProcSummary &P : S.Procs) {
    codec::write(Out, "proc", P);
    for (const GlobalRefSummary &R : P.GlobalRefs)
      codec::write(Out, "ref", R);
    for (const CallSummary &C : P.Calls)
      codec::write(Out, "call", C);
    for (const std::string &A : P.AddressTakenProcs)
      codec::write(Out, "addrtaken", A);
    for (const std::string &T : P.IndirectTargets)
      codec::write(Out, "indtarget", T);
    for (const GPGUpdate &U : P.GPG)
      codec::write(Out, "gpu", U);
    for (const GPGCallSite &C : P.GPGSites) {
      if (C.Callee.empty())
        codec::write(Out, "gpgsite", C, SiteFields);
      else
        codec::write(Out, "gpgcall", C);
    }
    Out += "end\n";
  }
  return Out;
}

bool ipra::readSummary(const std::string &Text, ModuleSummary &Out,
                       std::string &Error) {
  Out = ModuleSummary();
  codec::LineReader L(Text);
  if (!codec::readHeader(L, "summary-format", SummaryFormatVersion,
                         "summary", Out.ConfigFingerprint, Error))
    return false;
  auto Record = [&](int Kind) -> bool {
    switch (Kind) {
    case Module:
      return codec::read(L, Out.Module, Error);
    case Global:
      Out.Globals.emplace_back().Module = Out.Module;
      return codec::read(L, Out.Globals.back(), Error);
    case Proc:
      Out.Procs.emplace_back().Module = Out.Module;
      return codec::read(L, Out.Procs.back(), Error);
    }
    ProcSummary &P = Out.Procs.back();
    switch (Kind) {
    case Ref:
      return codec::read(L, P.GlobalRefs.emplace_back(), Error);
    case Call:
      return codec::read(L, P.Calls.emplace_back(), Error);
    case AddrTaken:
      return codec::read(L, P.AddressTakenProcs.emplace_back(), Error);
    case IndTarget:
      return codec::read(L, P.IndirectTargets.emplace_back(), Error);
    case Gpu:
      return codec::read(L, P.GPG.emplace_back(), Error);
    case GpgCall:
      return codec::read(L, P.GPGSites.emplace_back(), Error);
    default:
      return codec::read(L, P.GPGSites.emplace_back(), Error, SiteFields);
    }
  };
  if (!codec::readRecords(L, SummaryKinds, Record, Error))
    return false;
  if (Out.Module.empty())
    Error = "missing 'module' record";
  return !Out.Module.empty();
}
