//===- LinkOpt.cpp - Link-time register allocation ([Wall 86]) ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "link/LinkOpt.h"

#include "support/Liveness.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace ipra;

namespace {

/// What the whole-program scan learns about one global.
struct GlobalInfo {
  int SizeWords = 0;
  bool Escapes = false;   ///< Its address flows beyond a direct access.
  long long Accesses = 0; ///< Static LDW/STW count through its address.
};

/// Instruction successors within flattened function code (labels are
/// function-relative instruction indices in object files). Targets
/// outside the function are dropped.
void appendSuccessors(const std::vector<MInstr> &Code, int I,
                      std::vector<int> &Out) {
  const MInstr &Instr = Code[I];
  auto Add = [&](int S) {
    if (S >= 0 && S < static_cast<int>(Code.size()))
      Out.push_back(S);
  };
  switch (Instr.Op) {
  case MOp::B:
    return Add(Instr.A.LabelId);
  case MOp::CB:
    Add(Instr.C.LabelId);
    return Add(I + 1);
  case MOp::BV:
  case MOp::HALT:
    return;
  default:
    return Add(I + 1);
  }
}

/// May-liveness over one function, one node per instruction: Out[i] is
/// the set of physical registers possibly read after instruction i
/// executes. It is exact for straight-line code and conservative at
/// calls: a call's clobbers are NOT treated as defs (keeping values
/// "live" across calls deletes less, never more), and a return is
/// treated as reading every callee-saves register plus RV/RP/SP.
std::vector<DynBitset> liveOut(const std::vector<MInstr> &Code) {
  const RegMask ReturnReads = pr32::calleeSavedMask() | pr32::maskOf(pr32::RV) |
                              pr32::maskOf(pr32::RP) | pr32::maskOf(pr32::SP);
  LivenessProblem P(Code.size(), pr32::NumRegs);
  std::vector<unsigned> Regs;
  for (int I = 0; I < static_cast<int>(Code.size()); ++I) {
    appendSuccessors(Code, I, P.Succs[I]);
    Regs.clear();
    Code[I].appendDefs(Regs);
    for (unsigned R : Regs)
      P.def(I, R);
    Regs.clear();
    Code[I].appendUses(Regs);
    if (Code[I].Op == MOp::BV)
      for (unsigned R : pr32::maskRegs(ReturnReads))
        Regs.push_back(R);
    for (unsigned R : Regs)
      P.use(I, R);
  }
  return P.solve().Out;
}

/// Address-fact dataflow over one function. For every program point it
/// tracks which physical registers hold the address of which global:
///
///  - MUST facts (register definitely holds &G) identify the clean
///    direct accesses that may be counted and rewritten;
///  - MAY facts (register possibly holds &G, union over paths) identify
///    escapes - any use of a possibly-address register outside the
///    LDW/STW-base position poisons the global.
///
/// The split matters because the level-2 optimizer hoists invariant
/// ADDRGs out of loops: the materialization and its uses then live in
/// different blocks, and a block-local scan would silently miss both
/// the accesses and the escapes (the latter being a miscompile).
class AddressScan {
public:
  struct Facts {
    std::map<unsigned, std::string> Must;
    std::map<unsigned, std::set<std::string>> May;

    bool operator==(const Facts &O) const {
      return Must == O.Must && May == O.May;
    }
  };

  explicit AddressScan(const std::vector<MInstr> &Code) : Code(Code) {
    buildBlocks();
    runToFixpoint();
  }

  /// Replays the transfer function invoking the callbacks with settled
  /// facts. Access(G, Idx) fires on clean accesses, Escape(G) on
  /// address escapes, Opaque() on a global-scalar access whose base is
  /// a complete mystery.
  template <typename OnAccess, typename OnEscape, typename OnOpaque>
  void visit(OnAccess Access, OnEscape Escape, OnOpaque Opaque) const {
    for (size_t B = 0; B < Blocks.size(); ++B) {
      Facts F = In[B];
      for (int I = Blocks[B].first; I < Blocks[B].second; ++I)
        step(F, I, Access, Escape, Opaque);
    }
  }

private:
  const std::vector<MInstr> &Code;
  std::vector<std::pair<int, int>> Blocks; ///< [begin, end) per block.
  std::vector<int> BlockOf;                ///< Instruction -> block id.
  std::vector<Facts> In;

  void buildBlocks() {
    int N = static_cast<int>(Code.size());
    Seeded.clear();
    std::vector<bool> Leader(N, false);
    if (N > 0)
      Leader[0] = true;
    for (int I = 0; I < N; ++I) {
      const MInstr &Instr = Code[I];
      for (const MOperand *Op : {&Instr.A, &Instr.B, &Instr.C})
        if (Op->isLabel() && Op->LabelId >= 0 && Op->LabelId < N)
          Leader[Op->LabelId] = true;
      if (Instr.isBranch() || Instr.Op == MOp::HALT)
        if (I + 1 < N)
          Leader[I + 1] = true;
    }
    BlockOf.assign(N, 0);
    for (int I = 0; I < N; ++I) {
      if (Leader[I])
        Blocks.push_back({I, I + 1});
      else
        Blocks.back().second = I + 1;
      BlockOf[I] = static_cast<int>(Blocks.size()) - 1;
    }
    In.assign(Blocks.size(), Facts());
    Seeded.assign(Blocks.size(), false);
    if (!Seeded.empty())
      Seeded[0] = true; // Entry: no register holds an address.
  }

  /// MUST meets by agreement, MAY by union.
  static void meetInto(Facts &Into, const Facts &From, bool First) {
    if (First) {
      Into = From;
      return;
    }
    for (auto It = Into.Must.begin(); It != Into.Must.end();) {
      auto FIt = From.Must.find(It->first);
      It = (FIt == From.Must.end() || FIt->second != It->second)
               ? Into.Must.erase(It)
               : std::next(It);
    }
    for (const auto &[R, Gs] : From.May)
      Into.May[R].insert(Gs.begin(), Gs.end());
  }

  template <typename OnAccess, typename OnEscape, typename OnOpaque>
  void step(Facts &F, int Idx, OnAccess Access, OnEscape Escape,
            OnOpaque Opaque) const {
    const MInstr &I = Code[Idx];
    std::vector<unsigned> Regs;

    // Clean base position of a direct access?
    bool CleanBase = false;
    if ((I.Op == MOp::LDW || I.Op == MOp::STW) && I.B.isReg() &&
        I.C.isImm() && I.C.ImmVal == 0) {
      auto MIt = F.Must.find(I.B.RegNo);
      if (MIt != F.Must.end()) {
        Access(MIt->second, Idx);
        CleanBase = true;
      } else if (I.MC == MemClass::GlobalScalar) {
        auto AIt = F.May.find(I.B.RegNo);
        if (AIt != F.May.end())
          for (const std::string &G : AIt->second)
            Escape(G);
        else
          Opaque();
      }
    } else if ((I.Op == MOp::LDW || I.Op == MOp::STW) &&
               I.MC == MemClass::GlobalScalar) {
      Opaque();
    }

    // Every other use of a possibly-address register escapes it.
    I.appendUses(Regs);
    for (unsigned R : Regs) {
      if (CleanBase && I.B.isReg() && R == I.B.RegNo)
        continue;
      auto AIt = F.May.find(R);
      if (AIt != F.May.end())
        for (const std::string &G : AIt->second)
          Escape(G);
    }

    // Kills: calls clobber, defs overwrite.
    if (I.isCall()) {
      for (auto It = F.Must.begin(); It != F.Must.end();)
        It = (pr32::callClobberMask() & pr32::maskOf(It->first))
                 ? F.Must.erase(It)
                 : std::next(It);
      for (auto It = F.May.begin(); It != F.May.end();)
        It = (pr32::callClobberMask() & pr32::maskOf(It->first))
                 ? F.May.erase(It)
                 : std::next(It);
    }
    Regs.clear();
    I.appendDefs(Regs);
    for (unsigned R : Regs) {
      F.Must.erase(R);
      F.May.erase(R);
    }

    // Gen: a new address materialization.
    if (I.Op == MOp::ADDRG && I.A.isReg() && I.B.isSym()) {
      F.Must[I.A.RegNo] = I.B.SymName;
      F.May[I.A.RegNo] = {I.B.SymName};
    }
  }

  void runToFixpoint() {
    if (Blocks.empty())
      return;
    auto Nop1 = [](const std::string &, int) {};
    auto Nop2 = [](const std::string &) {};
    auto Nop3 = []() {};
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t B = 0; B < Blocks.size(); ++B) {
        Facts F = In[B];
        for (int I = Blocks[B].first; I < Blocks[B].second; ++I)
          step(F, I, Nop1, Nop2, Nop3);
        std::vector<int> Succs;
        appendSuccessors(Code, Blocks[B].second - 1, Succs);
        for (int S : Succs) {
          size_t SB = BlockOf[S];
          Facts Met = In[SB];
          // A successor whose entry facts were never set yet takes the
          // incoming facts wholesale; afterwards it only loses MUST
          // facts and gains MAY facts, so the fixpoint terminates.
          meetInto(Met, F, /*First=*/!Seeded[SB]);
          if (!Seeded[SB] || !(Met == In[SB])) {
            In[SB] = std::move(Met);
            Seeded[SB] = true;
            Changed = true;
          }
        }
      }
    }
  }

  /// Whether a block's entry facts have been computed at least once
  /// (an unseeded successor adopts incoming facts wholesale).
  std::vector<bool> Seeded;
};

} // namespace

LinkAllocStats
ipra::promoteGlobalsAtLinkTime(std::vector<ObjectFile> &Objects,
                               const LinkAllocOptions &Options) {
  LinkAllocStats Stats;

  // --- Whole-program scan -----------------------------------------------
  std::map<std::string, GlobalInfo> Globals;
  for (const ObjectFile &Obj : Objects)
    for (const ObjGlobal &G : Obj.Globals) {
      GlobalInfo &Info = Globals[G.QualName];
      Info.SizeWords = std::max(Info.SizeWords, G.SizeWords);
    }

  RegMask UsedAnywhere = 0;
  for (const ObjectFile &Obj : Objects)
    for (const ObjFunction &F : Obj.Functions) {
      for (const MInstr &I : F.Code)
        for (const MOperand *Op : {&I.A, &I.B, &I.C})
          if (Op->isReg())
            UsedAnywhere |= pr32::maskOf(Op->RegNo);
      // Static site counts, or profile-weighted site counts when a
      // profile is supplied (the procedure's invocation count stands in
      // for per-site frequencies the linker cannot see).
      long long Weight = 1;
      if (Options.InvocationCounts) {
        auto PIt = Options.InvocationCounts->find(F.QualName);
        if (PIt != Options.InvocationCounts->end())
          Weight = std::max<long long>(1, PIt->second);
      }
      AddressScan Scan(F.Code);
      Scan.visit(
          [&](const std::string &G, int) {
            auto It = Globals.find(G);
            if (It != Globals.end())
              It->second.Accesses += Weight;
          },
          [&](const std::string &G) {
            auto It = Globals.find(G);
            if (It != Globals.end())
              It->second.Escapes = true;
          },
          [&]() { Stats.OpaqueAccessSeen = true; });
    }

  // An access whose global cannot be identified could touch anything:
  // promotion is abandoned (sound, and in practice unreachable - the
  // compiler emits each address immediately before its only use).
  if (Stats.OpaqueAccessSeen)
    return Stats;

  // --- Register selection -------------------------------------------------
  // Only registers no function touches can hold a whole-program value;
  // the hardwired/linkage registers are never eligible.
  RegMask Reserved = UsedAnywhere | pr32::maskOf(pr32::Zero) |
                     pr32::maskOf(pr32::AT) | pr32::maskOf(pr32::RP) |
                     pr32::maskOf(pr32::RV) | pr32::maskOf(pr32::SP) |
                     pr32::argRegMask();
  std::vector<unsigned> FreeRegs;
  for (unsigned R = pr32::LastCalleeSaved;; --R) {
    // Callee-saves from the top down, then leftover caller-saves.
    if (!(Reserved & pr32::maskOf(R)))
      FreeRegs.push_back(R);
    if (R == pr32::FirstCalleeSaved)
      break;
  }
  for (unsigned R = 19; R < pr32::NumRegs; ++R)
    if (!(Reserved & pr32::maskOf(R)))
      FreeRegs.push_back(R);
  Stats.FreeRegisters = static_cast<int>(FreeRegs.size());

  // --- Candidate ranking ---------------------------------------------------
  std::vector<std::pair<std::string, const GlobalInfo *>> Candidates;
  for (const auto &[Name, Info] : Globals)
    if (Info.SizeWords == 1 && !Info.Escapes && Info.Accesses > 0)
      Candidates.push_back({Name, &Info});
  Stats.CandidateGlobals = static_cast<int>(Candidates.size());
  std::sort(Candidates.begin(), Candidates.end(),
            [](const auto &A, const auto &B) {
              if (A.second->Accesses != B.second->Accesses)
                return A.second->Accesses > B.second->Accesses;
              return A.first < B.first;
            });

  std::map<std::string, unsigned> RegOf;
  for (const auto &[Name, Info] : Candidates) {
    if (RegOf.size() >= static_cast<size_t>(Options.MaxGlobals) ||
        RegOf.size() >= FreeRegs.size())
      break;
    unsigned Reg = FreeRegs[RegOf.size()];
    RegOf[Name] = Reg;
    Stats.Promoted.push_back({Name, Reg});
  }
  if (RegOf.empty())
    return Stats;

  // --- Rewrite --------------------------------------------------------------
  for (ObjectFile &Obj : Objects)
    for (ObjFunction &F : Obj.Functions) {
      // First collect the rewrites (indices are stable), then apply.
      std::vector<std::pair<int, std::string>> Hits;
      AddressScan Scan(F.Code);
      Scan.visit(
          [&](const std::string &G, int Idx) {
            if (RegOf.count(G))
              Hits.push_back({Idx, G});
          },
          [](const std::string &) {}, []() {});
      for (const auto &[Idx, G] : Hits) {
        MInstr &I = F.Code[Idx];
        unsigned Rg = RegOf.at(G);
        if (I.Op == MOp::LDW) {
          unsigned Dst = I.A.RegNo;
          I = MInstr();
          I.Op = MOp::MOV;
          I.A = MOperand::makeReg(Dst);
          I.B = MOperand::makeReg(Rg);
          ++Stats.RewrittenLoads;
        } else {
          unsigned Src = I.A.RegNo;
          I = MInstr();
          I.Op = MOp::MOV;
          I.A = MOperand::makeReg(Rg);
          I.B = MOperand::makeReg(Src);
          ++Stats.RewrittenStores;
        }
      }

      if (!Options.Peephole)
        continue;

      // Link-time peephole: the rewrites leave ADDRGs of promoted
      // globals computing addresses nobody reads. Liveness proves
      // which are dead; deleting them shifts branch targets, so
      // label operands are remapped through the kept-prefix counts.
      std::vector<DynBitset> LiveOut = liveOut(F.Code);
      int N = static_cast<int>(F.Code.size());
      std::vector<bool> Keep(N, true);
      for (int I = 0; I < N; ++I) {
        const MInstr &Instr = F.Code[I];
        if (Instr.Op == MOp::ADDRG && Instr.B.isSym() &&
            RegOf.count(Instr.B.SymName) && Instr.A.isReg() &&
            !LiveOut[I].test(Instr.A.RegNo)) {
          Keep[I] = false;
          ++Stats.RemovedInstrs;
        }
      }
      std::vector<int> NewIndex(N + 1, 0);
      for (int I = 0; I < N; ++I)
        NewIndex[I + 1] = NewIndex[I] + (Keep[I] ? 1 : 0);
      std::vector<MInstr> Kept;
      Kept.reserve(NewIndex[N]);
      for (int I = 0; I < N; ++I) {
        if (!Keep[I])
          continue;
        MInstr Instr = std::move(F.Code[I]);
        for (MOperand *Op : {&Instr.A, &Instr.B, &Instr.C})
          if (Op->isLabel() && Op->LabelId >= 0 && Op->LabelId <= N)
            Op->LabelId = NewIndex[Op->LabelId];
        Kept.push_back(std::move(Instr));
      }
      F.Code = std::move(Kept);
    }
  return Stats;
}

WallLinkResult ipra::linkObjectsWallStyle(std::vector<ObjectFile> Objects,
                                          const LinkAllocOptions &Options) {
  WallLinkResult Result;
  Result.Stats = promoteGlobalsAtLinkTime(Objects, Options);
  LinkResult Linked = linkObjects(Objects, Result.Stats.Promoted);
  Result.Errors = Linked.Errors;
  if (!Linked.Success)
    return Result;
  Result.Exe = std::move(Linked.Exe);
  Result.Success = true;
  return Result;
}
