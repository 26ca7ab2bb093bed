//===- Summary.cpp - Compiler-first-phase summary records -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "summary/Summary.h"

#include "ir/CFG.h"
#include "support/StringUtils.h"

#include <map>
#include <cstdio>
#include <cstdlib>
#include <sstream>

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

const char *ipra::enumName(PointsToMode Mode) {
  switch (Mode) {
  case PointsToMode::Off:
    return "off";
  case PointsToMode::Andersen:
    return "andersen";
  case PointsToMode::GPG:
    return "gpg";
  }
  return "off";
}

bool ipra::enumFromName(std::string_view Text, PointsToMode &Out) {
  if (Text == "off")
    Out = PointsToMode::Off;
  else if (Text == "andersen")
    Out = PointsToMode::Andersen;
  else if (Text == "gpg")
    Out = PointsToMode::GPG;
  else
    return false;
  return true;
}

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

  // 'func g = &f;' initializers also take addresses; attribute them to
  // the module by appending to the first procedure record — more
  // faithfully, record them on a synthetic module-level list. Keep it
  // simple and sound: mark them on every proc summary's address-taken
  // list only once via the first proc, or if the module has no procs,
  // they cannot be called from this module anyway but another module
  // might; encode them as a module-level pseudo record below.
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
// Serialization: a line-oriented format.
//
//   summary-format <version> config=<fingerprint|->
//   module <name>
//   global <qual> static=<0|1> scalar=<0|1> aliased=<0|1> escape=<0|1|2>
//          init=<0|1> [finit=<qual>]
//   proc <qual> regs=<n> indirect=<0|1> indfreq=<n> indresolved=<0|1>
//        params=<n> [gpg=<0|1>]
//   ref <qual> freq=<n> stores=<0|1> loads=<0|1>
//   call <qual> freq=<n> args=<n>
//   addrtaken <qual>
//   indtarget <qual>
//   gpu <dst> <dlev> <src> <slev> ord=<n>
//   gpgcall <ord> <qual>
//   gpgsite <ord> [<chan>^<lev> ...]
//   end
//
// The header line is required; input without one is rejected.
// Version 3 added the points-to fields (escape=, indresolved=,
// indtarget). Readers default them to the conservative values when
// absent. Version 4 added the
// GPG residue records (gpu/gpgcall/gpgsite, proc gpg=, global finit=)
// the analyzer composes into flow- and context-sensitive facts.
// Version 5 added the mod/ref and lint fields: ref loads= (reads
// independent of stores), proc params= and call args= (cross-module
// arity checking), global init= (explicit-initializer presence). On
// records without them, readers default loads= to "assume reads",
// init= to "assume initialized", params=/args= to -1 (unknown) — the
// conservative values that keep such records sound and lint-silent.
//===----------------------------------------------------------------------===//

std::string ipra::writeSummary(const ModuleSummary &S) {
  std::ostringstream OS;
  OS << "summary-format " << SummaryFormatVersion << " config="
     << (S.ConfigFingerprint.empty() ? "-" : S.ConfigFingerprint) << "\n";
  OS << "module " << S.Module << "\n";
  for (const GlobalSummary &G : S.Globals) {
    OS << "global " << G.QualName << " static=" << G.IsStatic
       << " scalar=" << G.IsScalar << " aliased=" << G.Aliased
       << " escape=" << static_cast<int>(G.Escape)
       << " init=" << G.HasInit;
    if (!G.FuncInit.empty())
      OS << " finit=" << G.FuncInit;
    OS << "\n";
  }
  for (const ProcSummary &P : S.Procs) {
    char CallerHex[16];
    std::snprintf(CallerHex, sizeof(CallerHex), "%08x", P.CallerRegsUsed);
    OS << "proc " << P.QualName << " regs=" << P.CalleeRegsNeeded
       << " indirect=" << P.MakesIndirectCalls
       << " indfreq=" << P.IndirectCallFreq
       << " callerused=" << CallerHex
       << " indresolved=" << P.IndTargetsResolved
       << " params=" << P.NumParams;
    if (P.HasGPG)
      OS << " gpg=1";
    OS << "\n";
    for (const GlobalRefSummary &R : P.GlobalRefs)
      OS << "ref " << R.QualName << " freq=" << R.Freq
         << " stores=" << R.Stores << " loads=" << R.Loads << "\n";
    for (const CallSummary &C : P.Calls)
      OS << "call " << C.QualCallee << " freq=" << C.Freq
         << " args=" << C.Args << "\n";
    for (const std::string &A : P.AddressTakenProcs)
      OS << "addrtaken " << A << "\n";
    for (const std::string &T : P.IndirectTargets)
      OS << "indtarget " << T << "\n";
    for (const GPGUpdate &U : P.GPG)
      OS << "gpu " << U.Dst << " " << U.DstLev << " " << U.Src << " "
         << U.SrcLev << " ord=" << U.Ord << "\n";
    for (const GPGCallSite &C : P.GPGSites) {
      if (!C.Callee.empty()) {
        OS << "gpgcall " << C.Ord << " " << C.Callee << "\n";
      } else {
        OS << "gpgsite " << C.Ord;
        for (const std::string &T : C.Targets)
          OS << " " << T;
        OS << "\n";
      }
    }
    OS << "end\n";
  }
  return OS.str();
}

namespace {

/// Parses "key=value" returning the value text, or empty.
std::string fieldValue(const std::string &Token, const std::string &Key) {
  std::string Prefix = Key + "=";
  if (startsWith(Token, Prefix))
    return Token.substr(Prefix.size());
  return "";
}

long long numField(const std::vector<std::string> &Tokens,
                   const std::string &Key) {
  for (const std::string &T : Tokens) {
    std::string V = fieldValue(T, Key);
    if (!V.empty() || T == Key + "=") {
      long long N = 0;
      parseInt(V, N);
      return N;
    }
  }
  return 0;
}

/// True when a "key=..." token is present at all — lets readers tell a
/// legacy record (field absent, use the conservative default) from an
/// explicit zero.
bool hasField(const std::vector<std::string> &Tokens,
              const std::string &Key) {
  std::string Prefix = Key + "=";
  for (const std::string &T : Tokens)
    if (startsWith(T, Prefix))
      return true;
  return false;
}

} // namespace

bool ipra::readSummary(const std::string &Text, ModuleSummary &Out,
                       std::string &Error) {
  Out = ModuleSummary();
  ProcSummary *Cur = nullptr;
  int LineNo = 0;
  bool SawHeader = false;
  for (const std::string &RawLine : split(Text, '\n')) {
    ++LineNo;
    std::string Line = trim(RawLine);
    if (Line.empty())
      continue;
    std::vector<std::string> Tok = split(Line, ' ');
    const std::string &Kind = Tok[0];
    auto Require = [&](size_t N) {
      if (Tok.size() < N) {
        Error = "line " + std::to_string(LineNo) + ": malformed '" + Kind +
                "' record";
        return false;
      }
      return true;
    };
    if (Kind == "summary-format") {
      // Header line: format version + producing-config fingerprint.
      long long Version = 0;
      if (!Require(2) || !parseInt(Tok[1], Version)) {
        Error = "line " + std::to_string(LineNo) +
                ": malformed summary format header";
        return false;
      }
      if (Version != SummaryFormatVersion) {
        Error = "summary format version " + Tok[1] +
                " is not supported (this reader handles version " +
                std::to_string(SummaryFormatVersion) +
                "); regenerate the summary with this toolchain";
        return false;
      }
      SawHeader = true;
      for (const std::string &T : Tok)
        if (startsWith(T, "config=")) {
          std::string FP = T.substr(7);
          Out.ConfigFingerprint = FP == "-" ? "" : FP;
        }
    } else if (Kind == "module") {
      if (!Require(2))
        return false;
      Out.Module = Tok[1];
    } else if (Kind == "global") {
      if (!Require(5))
        return false;
      GlobalSummary G;
      G.QualName = Tok[1];
      G.Module = Out.Module;
      G.IsStatic = numField(Tok, "static");
      G.IsScalar = numField(Tok, "scalar");
      G.Aliased = numField(Tok, "aliased");
      long long Escape = numField(Tok, "escape");
      if (Escape >= 0 && Escape <= 2)
        G.Escape = static_cast<EscapeVerdict>(Escape);
      G.HasInit = hasField(Tok, "init") ? numField(Tok, "init") != 0 : true;
      for (const std::string &T : Tok)
        if (startsWith(T, "finit="))
          G.FuncInit = T.substr(6);
      Out.Globals.push_back(std::move(G));
    } else if (Kind == "proc") {
      if (!Require(2))
        return false;
      ProcSummary P;
      P.QualName = Tok[1];
      P.Module = Out.Module;
      P.CalleeRegsNeeded = static_cast<unsigned>(numField(Tok, "regs"));
      P.MakesIndirectCalls = numField(Tok, "indirect");
      P.IndirectCallFreq = numField(Tok, "indfreq");
      P.IndTargetsResolved = numField(Tok, "indresolved");
      P.NumParams = hasField(Tok, "params")
                        ? static_cast<int>(numField(Tok, "params"))
                        : -1;
      P.HasGPG = numField(Tok, "gpg");
      for (const std::string &T : Tok)
        if (startsWith(T, "callerused="))
          P.CallerRegsUsed = static_cast<unsigned>(std::strtoul(
              T.substr(11).c_str(), nullptr, 16));
      Out.Procs.push_back(std::move(P));
      Cur = &Out.Procs.back();
    } else if (Kind == "ref") {
      if (!Require(2) || !Cur) {
        Error = "line " + std::to_string(LineNo) + ": 'ref' outside proc";
        return false;
      }
      GlobalRefSummary R;
      R.QualName = Tok[1];
      R.Freq = numField(Tok, "freq");
      R.Stores = numField(Tok, "stores");
      R.Loads = hasField(Tok, "loads") ? numField(Tok, "loads") != 0 : true;
      Cur->GlobalRefs.push_back(std::move(R));
    } else if (Kind == "call") {
      if (!Require(2) || !Cur) {
        Error = "line " + std::to_string(LineNo) + ": 'call' outside proc";
        return false;
      }
      CallSummary C;
      C.QualCallee = Tok[1];
      C.Freq = numField(Tok, "freq");
      C.Args = hasField(Tok, "args")
                   ? static_cast<int>(numField(Tok, "args"))
                   : -1;
      Cur->Calls.push_back(std::move(C));
    } else if (Kind == "addrtaken") {
      if (!Require(2) || !Cur) {
        Error = "line " + std::to_string(LineNo) +
                ": 'addrtaken' outside proc";
        return false;
      }
      Cur->AddressTakenProcs.push_back(Tok[1]);
    } else if (Kind == "indtarget") {
      if (!Require(2) || !Cur) {
        Error = "line " + std::to_string(LineNo) +
                ": 'indtarget' outside proc";
        return false;
      }
      Cur->IndirectTargets.push_back(Tok[1]);
    } else if (Kind == "gpu") {
      if (!Require(5) || !Cur) {
        Error = "line " + std::to_string(LineNo) + ": 'gpu' outside proc";
        return false;
      }
      GPGUpdate U;
      U.Dst = Tok[1];
      long long DLev = 0, SLev = 0;
      parseInt(Tok[2], DLev);
      U.Src = Tok[3];
      parseInt(Tok[4], SLev);
      U.DstLev = static_cast<int>(DLev);
      U.SrcLev = static_cast<int>(SLev);
      U.Ord = static_cast<int>(numField(Tok, "ord"));
      Cur->GPG.push_back(std::move(U));
    } else if (Kind == "gpgcall") {
      if (!Require(3) || !Cur) {
        Error =
            "line " + std::to_string(LineNo) + ": 'gpgcall' outside proc";
        return false;
      }
      GPGCallSite C;
      long long Ord = 0;
      parseInt(Tok[1], Ord);
      C.Ord = static_cast<int>(Ord);
      C.Callee = Tok[2];
      Cur->GPGSites.push_back(std::move(C));
    } else if (Kind == "gpgsite") {
      if (!Require(2) || !Cur) {
        Error =
            "line " + std::to_string(LineNo) + ": 'gpgsite' outside proc";
        return false;
      }
      GPGCallSite C;
      long long Ord = 0;
      parseInt(Tok[1], Ord);
      C.Ord = static_cast<int>(Ord);
      C.Targets.assign(Tok.begin() + 2, Tok.end());
      Cur->GPGSites.push_back(std::move(C));
    } else if (Kind == "end") {
      Cur = nullptr;
    } else {
      Error = "line " + std::to_string(LineNo) + ": unknown record '" +
              Kind + "'";
      return false;
    }
  }
  if (!SawHeader) {
    Error = "missing 'summary-format' header line; regenerate the summary "
            "with this toolchain";
    return false;
  }
  return true;
}
