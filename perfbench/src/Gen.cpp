//===- Gen.cpp - Seeded input generators for perfbench --------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include <algorithm>
#include <sstream>

using namespace ipra;
using namespace perfbench;

namespace {

int pick(std::mt19937 &Rng, int N) {
  return static_cast<int>(Rng() % static_cast<unsigned>(N));
}

std::string procName(int M, int P) {
  if (M == 0 && P == 0)
    return "main";
  return "p" + std::to_string(M) + "_" + std::to_string(P);
}

} // namespace

//===----------------------------------------------------------------------===//
// Synthetic summary program.
//===----------------------------------------------------------------------===//

std::vector<ModuleSummary>
perfbench::syntheticSummaries(const SummaryShape &Shape, unsigned Seed) {
  std::mt19937 Rng(Seed);
  constexpr int Width = 10; // Procedures per call-graph layer.
  const int NM = Shape.Modules, NP = Shape.ProcsPerModule;

  std::vector<ModuleSummary> Mods(static_cast<size_t>(NM));
  for (int M = 0; M < NM; ++M) {
    ModuleSummary &Mod = Mods[static_cast<size_t>(M)];
    Mod.Module = "m" + std::to_string(M);
    for (int P = 0; P < NP; ++P) {
      ProcSummary PS;
      PS.QualName = procName(M, P);
      PS.Module = Mod.Module;
      PS.CalleeRegsNeeded = static_cast<unsigned>(pick(Rng, 8));
      PS.CallerRegsUsed = static_cast<unsigned>(pick(Rng, 0x400));
      Mod.Procs.push_back(std::move(PS));
    }
  }

  // Layered calls inside each module; the deepest layer sometimes
  // bridges into the next module, and main reaches every module.
  for (int M = 0; M < NM; ++M) {
    ModuleSummary &Mod = Mods[static_cast<size_t>(M)];
    for (int P = 0; P < NP; ++P) {
      int Next = (P / Width + 1) * Width;
      std::vector<CallSummary> &Calls =
          Mod.Procs[static_cast<size_t>(P)].Calls;
      if (Next < NP) {
        int N = 1 + pick(Rng, 3);
        for (int C = 0; C < N; ++C)
          Calls.push_back(CallSummary{
              procName(M, Next + pick(Rng, std::min(Width, NP - Next))),
              1 + pick(Rng, 20)});
      } else if (M + 1 < NM && pick(Rng, 3) == 0) {
        Calls.push_back(
            CallSummary{procName(M + 1, pick(Rng, Width)), 1 + pick(Rng, 10)});
      }
    }
    if (M > 0)
      Mods[0].Procs[0].Calls.push_back(
          CallSummary{procName(M, pick(Rng, Width)), 1 + pick(Rng, 20)});
  }

  // Globals: referenced in two to four compact regions (a seed procedure
  // plus some of its callees); one in five is also read next door.
  for (int M = 0; M < NM; ++M) {
    ModuleSummary &Mod = Mods[static_cast<size_t>(M)];
    for (int G = 0; G < Shape.GlobalsPerModule; ++G) {
      GlobalSummary GS;
      GS.QualName = "g" + std::to_string(M) + "_" + std::to_string(G);
      GS.Module = Mod.Module;
      GS.IsScalar = true;
      Mod.Globals.push_back(GS);

      int Regions = 2 + pick(Rng, 3);
      for (int R = 0; R < Regions; ++R) {
        int Seed = pick(Rng, NP);
        ProcSummary &Root = Mod.Procs[static_cast<size_t>(Seed)];
        Root.GlobalRefs.push_back(GlobalRefSummary{
            GS.QualName, 2 + pick(Rng, 50), pick(Rng, 3) == 0, true});
        for (const CallSummary &C : Root.Calls) {
          if (pick(Rng, 2) != 0)
            break;
          // Intra-module callees are named p<M>_<index>.
          std::string Prefix = "p" + std::to_string(M) + "_";
          if (C.QualCallee.rfind(Prefix, 0) != 0)
            continue;
          int Callee = std::stoi(C.QualCallee.substr(Prefix.size()));
          Mod.Procs[static_cast<size_t>(Callee)].GlobalRefs.push_back(
              GlobalRefSummary{GS.QualName, 1 + pick(Rng, 10), false, true});
        }
      }
      if (M + 1 < NM && pick(Rng, 5) == 0)
        Mods[static_cast<size_t>(M + 1)]
            .Procs[static_cast<size_t>(pick(Rng, NP))]
            .GlobalRefs.push_back(
                GlobalRefSummary{GS.QualName, 1 + pick(Rng, 8), false, true});
    }
  }
  return Mods;
}

const char *perfbench::editSummary(ModuleSummary &Mod, int Kind,
                                   std::mt19937 &Rng) {
  // Start at a random procedure so successive edits of one module touch
  // different procedures.
  size_t N = Mod.Procs.size();
  size_t Start = Rng() % N;
  switch (Kind % 3) {
  case 0:
    for (size_t I = 0; I < N; ++I) {
      ProcSummary &P = Mod.Procs[(Start + I) % N];
      if (!P.GlobalRefs.empty()) {
        long long Old = P.GlobalRefs.front().Freq;
        P.GlobalRefs.front().Freq = 1 + pick(Rng, 200);
        if (P.GlobalRefs.front().Freq == Old)
          ++P.GlobalRefs.front().Freq;
        return "ref-freq";
      }
    }
    [[fallthrough]];
  case 1: {
    ProcSummary &P = Mod.Procs[Start];
    unsigned Old = P.CallerRegsUsed;
    P.CalleeRegsNeeded = static_cast<unsigned>(pick(Rng, 14));
    P.CallerRegsUsed = static_cast<unsigned>(pick(Rng, 0x4000));
    if (P.CallerRegsUsed == Old)
      P.CallerRegsUsed ^= 1;
    return "reg-need";
  }
  default:
    for (size_t I = 0; I < N; ++I) {
      ProcSummary &P = Mod.Procs[(Start + I) % N];
      if (!P.Calls.empty()) {
        long long Old = P.Calls.front().Freq;
        P.Calls.front().Freq = 1 + pick(Rng, 60);
        if (P.Calls.front().Freq == Old)
          ++P.Calls.front().Freq;
        return "call-freq";
      }
    }
    return editSummary(Mod, 1, Rng);
  }
}

//===----------------------------------------------------------------------===//
// MiniC source program.
//===----------------------------------------------------------------------===//

namespace {

const char *const LoopOps[] = {"+", "-", "^", "|"};

/// Globals module \p M may reference: its own, then the previous
/// module's first (a cross-module web).
std::vector<std::string> referenceable(const ProgramModel &P, int M) {
  std::vector<std::string> Names;
  for (int G = 0; G < P.Shape.GlobalsPerModule; ++G)
    Names.push_back("g" + std::to_string(M) + "_" + std::to_string(G));
  if (M > 0)
    Names.push_back("g" + std::to_string(M - 1) + "_0");
  return Names;
}

std::string funcName(int M, int F) {
  return "f" + std::to_string(M) + "_" + std::to_string(F);
}

int numWorkModules(const ProgramModel &P) {
  return static_cast<int>(P.Modules.size());
}

} // namespace

ProgramModel perfbench::generateProgram(const SourceShape &Shape,
                                        unsigned Seed) {
  std::mt19937 Rng(Seed);
  ProgramModel P;
  P.Shape = Shape;
  P.Modules.resize(static_cast<size_t>(Shape.Modules));
  for (int M = 0; M < Shape.Modules; ++M) {
    int NumRefs = Shape.GlobalsPerModule + (M > 0 ? 1 : 0);
    ModuleModel &Mod = P.Modules[static_cast<size_t>(M)];
    // One function per module calls the next module's leaf: the leaf
    // calls nothing, so the bridge adds a cross-module edge while every
    // seed does the same amount of work.
    int Bridge = M + 1 < Shape.Modules
                     ? pick(Rng, std::max(1, Shape.FuncsPerModule - 1))
                     : -1;
    for (int F = 0; F < Shape.FuncsPerModule; ++F) {
      FuncModel Fn;
      Fn.AddConst = 1 + pick(Rng, 9000);
      Fn.Global = F % NumRefs;
      Fn.ExtraGlobal = (F + 1) % NumRefs;
      Fn.Op = pick(Rng, 4);
      Fn.Branch = pick(Rng, 60000);
      if (F + 1 < Shape.FuncsPerModule)
        Fn.Callee = F + 1;
      Fn.CallsNextLeaf = F == Bridge;
      Mod.Funcs.push_back(Fn);
    }
  }
  return P;
}

SourceFile perfbench::renderModule(const ProgramModel &P, int M) {
  std::ostringstream OS;
  const int NM = numWorkModules(P);
  if (M == NM) {
    // main's module: drivers call groups of module entries (keeping
    // every function small), main runs the drivers for Rounds rounds.
    constexpr int Group = 8;
    for (int I = 0; I < NM; ++I)
      OS << "int " << funcName(I, 0) << "(int a, int b);\n";
    for (int I = 0; I < NM; I += std::max(1, NM / 8))
      OS << "int g" << I << "_0;\n";
    const int NumDrivers = (NM + Group - 1) / Group;
    for (int D = 0; D < NumDrivers; ++D) {
      OS << "\nint d" << D << "(int k, int r) {\n";
      for (int I = D * Group; I < std::min(NM, (D + 1) * Group); ++I)
        OS << "  r = (r + " << funcName(I, 0) << "(k, r & 7)) & 1048575;\n";
      OS << "  return r;\n}\n";
    }
    OS << "\nint main() {\n  int r = 0;\n"
       << "  for (int k = 0; k < " << P.Shape.Rounds << "; k = k + 1) {\n";
    for (int D = 0; D < NumDrivers; ++D)
      OS << "    r = d" << D << "(k, r);\n";
    OS << "  }\n  print(r);\n";
    for (int I = 0; I < NM; I += std::max(1, NM / 8))
      OS << "  print(g" << I << "_0);\n";
    OS << "  return 0;\n}\n";
    return SourceFile{"main.mc", OS.str()};
  }

  const ModuleModel &Mod = P.Modules[static_cast<size_t>(M)];
  std::vector<std::string> Refs = referenceable(P, M);
  for (const std::string &G : Refs)
    OS << "int " << G << ";\n";
  OS << "static int acc;\n";
  for (size_t F = 0; F < Mod.Funcs.size(); ++F)
    OS << "int " << funcName(M, static_cast<int>(F)) << "(int a, int b);\n";
  const int Leaf = P.Shape.FuncsPerModule - 1;
  if (M + 1 < NM)
    OS << "int " << funcName(M + 1, Leaf) << "(int a, int b);\n";
  OS << "\n";

  for (size_t F = 0; F < Mod.Funcs.size(); ++F) {
    const FuncModel &Fn = Mod.Funcs[F];
    const std::string &G = Refs[static_cast<size_t>(Fn.Global)];
    const std::string &H = Refs[static_cast<size_t>(Fn.ExtraGlobal)];
    OS << "int " << funcName(M, static_cast<int>(F)) << "(int a, int b) {\n"
       << "  int s = a + " << Fn.AddConst << ";\n"
       << "  for (int i = 0; i < " << P.Shape.Trip << "; i = i + 1) {\n"
       << "    s = (s " << LoopOps[Fn.Op] << " (b + i)) & 65535;\n"
       << "    " << G << " = (" << G << " + s) & 65535;\n"
       << "  }\n"
       << "  if (s > " << Fn.Branch << ")\n"
       << "    s = s - " << H << ";\n"
       << "  else\n"
       << "    s = s + " << H << ";\n"
       << "  acc = acc + (s & 1);\n";
    if (Fn.Callee >= 0)
      OS << "  s = s + " << funcName(M, Fn.Callee) << "(s & 63, b);\n";
    if (Fn.CallsNextLeaf)
      OS << "  s = s + " << funcName(M + 1, Leaf) << "(s & 31, acc);\n";
    OS << "  return s & 65535;\n}\n\n";
  }
  return SourceFile{"m" + std::to_string(M) + ".mc", OS.str()};
}

std::vector<SourceFile> perfbench::renderProgram(const ProgramModel &P) {
  std::vector<SourceFile> Out;
  for (int M = 0; M <= numWorkModules(P); ++M)
    Out.push_back(renderModule(P, M));
  return Out;
}

namespace {

/// A random function of a random non-main module; \p M gets the module.
FuncModel &pickFunction(ProgramModel &P, std::mt19937 &Rng, int &M) {
  M = pick(Rng, numWorkModules(P));
  std::vector<FuncModel> &Funcs = P.Modules[static_cast<size_t>(M)].Funcs;
  return Funcs[Rng() % Funcs.size()];
}

} // namespace

int perfbench::bodyEdit(ProgramModel &P, std::mt19937 &Rng) {
  int M;
  FuncModel &Fn = pickFunction(P, Rng, M);
  int Old = Fn.AddConst;
  do
    Fn.AddConst = 1 + pick(Rng, 9000);
  while (Fn.AddConst == Old);
  return M;
}

int perfbench::refEdit(ProgramModel &P, std::mt19937 &Rng) {
  int M;
  FuncModel &Fn = pickFunction(P, Rng, M);
  int NumRefs = P.Shape.GlobalsPerModule + (M > 0 ? 1 : 0);
  int Old = Fn.Global;
  do
    Fn.Global = pick(Rng, NumRefs);
  while (Fn.Global == Old && NumRefs > 1);
  return M;
}
