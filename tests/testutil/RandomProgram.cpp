//===- RandomProgram.cpp - Seeded random summary programs -----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "RandomProgram.h"

#include <algorithm>
#include <random>
#include <string>

using namespace ipra;

std::vector<ModuleSummary> ipra::test::randomProgram(const ProgramShape &Shape,
                                                     unsigned Seed) {
  std::mt19937 Rng(Seed);
  auto Rand = [&Rng](int N) {
    return static_cast<int>(Rng() % static_cast<unsigned>(N));
  };
  auto Draw = [&Rand](ProgramShape::Range R) { return R.Min + Rand(R.Span); };

  int NumModules = Draw(Shape.Modules);
  int ProcsPerModule = Draw(Shape.ProcsPerModule);
  int NumGlobals = Draw(Shape.Globals);

  std::vector<ModuleSummary> Mods(NumModules);
  std::vector<std::string> Names; // global proc index -> qual name
  std::vector<int> ModOf;
  std::vector<bool> Exported;
  for (int M = 0; M < NumModules; ++M) {
    Mods[M].Module = "m" + std::to_string(M);
    for (int P = 0; P < ProcsPerModule; ++P) {
      ProcSummary PS;
      int Idx = static_cast<int>(Names.size());
      bool IsMain = M == 0 && P == 0;
      bool Static = !IsMain && Rand(4) == 0;
      PS.QualName = IsMain ? "main"
                    : Static
                        ? Mods[M].Module + ":s" + std::to_string(Idx)
                        : "p" + std::to_string(Idx);
      PS.Module = Mods[M].Module;
      PS.CalleeRegsNeeded = static_cast<unsigned>(Rand(14));
      if (Shape.DrawCallerRegs)
        PS.CallerRegsUsed = static_cast<unsigned>(Rand(0x3fff));
      Names.push_back(PS.QualName);
      ModOf.push_back(M);
      Exported.push_back(!Static);
      Mods[M].Procs.push_back(std::move(PS));
    }
  }

  auto ProcAt = [&](int Idx) -> ProcSummary & {
    return Mods[ModOf[Idx]].Procs[Idx % ProcsPerModule];
  };

  // Intra-module layered edges (forward by index) plus occasional back
  // edges and self-loops for recursion.
  for (int Idx = 0; Idx < static_cast<int>(Names.size()); ++Idx) {
    int M = ModOf[Idx];
    int Base = M * ProcsPerModule;
    int Pos = Idx - Base;
    int NumCalls = Rand(3);
    for (int C = 0; C < NumCalls; ++C) {
      int Span = ProcsPerModule - 1 - Pos;
      if (Span <= 0)
        break;
      int Target = Idx + 1 + Rand(std::min(Span, 5));
      ProcAt(Idx).Calls.push_back(
          CallSummary{Names[Target], 1 + Rand(40)});
    }
    if (Pos > 2 && Rand(6) == 0) { // Back edge: a recursion cycle.
      int Target = Base + Rand(Pos);
      ProcAt(Idx).Calls.push_back(
          CallSummary{Names[Target], 1 + Rand(10)});
    }
    if (Rand(12) == 0) // Self-recursion.
      ProcAt(Idx).Calls.push_back(CallSummary{Names[Idx], 1 + Rand(5)});
    if (Rand(4) == 0) { // Cross-module call to an exported procedure.
      int Target = Rand(static_cast<int>(Names.size()));
      if (Exported[Target] && ModOf[Target] != M && Target != 0)
        ProcAt(Idx).Calls.push_back(
            CallSummary{Names[Target], 1 + Rand(20)});
    }
  }
  // main fans out to a root in every module so most nodes are
  // reachable; the rest stay unreachable on purpose.
  for (int M = 1; M < NumModules; ++M)
    Mods[0].Procs[0].Calls.push_back(
        CallSummary{Names[M * ProcsPerModule + Rand(3)], 1 + Rand(20)});

  // Address-taken procedures and indirect callers.
  int NumIndirect = Draw(Shape.IndirectCallers);
  for (int I = 0; I < NumIndirect; ++I) {
    int Holder = Rand(static_cast<int>(Names.size()));
    int Target = Rand(static_cast<int>(Names.size()));
    ProcAt(Holder).AddressTakenProcs.push_back(Names[Target]);
    ProcAt(Holder).MakesIndirectCalls = true;
    ProcAt(Holder).IndirectCallFreq = 1 + Rand(10);
  }

  // Globals: mostly exported scalars, some module statics, a few
  // ineligible (aliased or non-scalar).
  for (int G = 0; G < NumGlobals; ++G) {
    GlobalSummary GS;
    int M = Rand(NumModules);
    GS.Module = Mods[M].Module;
    GS.IsStatic = Rand(4) == 0;
    GS.QualName = GS.IsStatic ? GS.Module + ":h" + std::to_string(G)
                              : "g" + std::to_string(G);
    GS.IsScalar = Rand(10) != 0;
    GS.Aliased = Rand(10) == 0;
    Mods[M].Globals.push_back(GS);

    int NumRefs = 1 + Rand(4);
    for (int R = 0; R < NumRefs; ++R) {
      int P = Rand(static_cast<int>(Names.size()));
      if (GS.IsStatic && ModOf[P] != M && Rand(2) == 0)
        continue; // Statics mostly referenced in their own module.
      ProcAt(P).GlobalRefs.push_back(
          GlobalRefSummary{GS.QualName, 1 + Rand(100), Rand(3) == 0});
    }
  }
  return Mods;
}
