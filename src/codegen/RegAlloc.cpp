//===- RegAlloc.cpp - Priority-based graph-coloring allocator -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "codegen/RegAlloc.h"

#include "support/Liveness.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <unordered_set>

using namespace ipra;

namespace {

/// Per-round allocation state over one MachineFunction.
class Allocator {
public:
  Allocator(MachineFunction &MF, const ProcDirectives &Dir,
            const std::vector<long long> &BlockFreq,
            const CallClobberResolver &Clobbers)
      : MF(MF), Dir(Dir), BlockFreq(BlockFreq), Clobbers(Clobbers) {}

  RegAllocResult run();

private:
  unsigned numVirt() const { return MF.NextVReg - VirtRegBase; }
  unsigned virtIndex(unsigned Reg) const { return Reg - VirtRegBase; }
  long long freqOf(int Block) const {
    return Block < static_cast<int>(BlockFreq.size()) ? BlockFreq[Block]
                                                      : 1;
  }

  void buildInterference();
  bool colorAll(bool TempsFirst);
  bool tempFailed() const;
  void rewriteAssigned();
  void spillVirtReg(unsigned V);

  MachineFunction &MF;
  const ProcDirectives &Dir;
  const std::vector<long long> &BlockFreq;
  const CallClobberResolver &Clobbers;

  /// Clobber mask of one call instruction.
  RegMask callClobber(const MInstr &I) const {
    if (I.Op == MOp::BL && Clobbers && I.A.isSym())
      return Clobbers(I.A.SymName) | pr32::maskOf(pr32::RP) |
             pr32::maskOf(pr32::RV);
    return pr32::callClobberMask();
  }

  // Interference results.
  /// Interfering vreg index pairs, as found (repeats included).
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  /// The neighbours of vreg index V, each once and in no particular
  /// order, are AdjList[AdjStart[V], AdjStart[V + 1]).
  std::vector<unsigned> AdjStart, AdjList;
  std::vector<RegMask> ForbiddenPhys;      ///< vreg index -> phys conflicts.
  /// Union of the clobber masks of every call the vreg is live across
  /// (0 = crosses no call at all).
  std::vector<RegMask> CrossClobber;
  std::vector<long long> Weight;
  std::vector<int> HintReg;        ///< Preferred phys reg or -1.
  std::vector<bool> Referenced;    ///< vreg appears in the code.
  std::unordered_set<unsigned> NoSpill; ///< Spill temps (vreg numbers).

  std::vector<int> Assignment; ///< vreg index -> phys reg or -1.
  std::vector<unsigned> ToSpill;

  RegMask UsedCalleeSet = 0; ///< Regs taken from the CALLEE set.
  RegMask UsedAnyCallee = 0; ///< Any callee-saves register used.
  unsigned SpillCount = 0;
};

} // namespace

void Allocator::buildInterference() {
  unsigned NV = numVirt();
  Pairs.clear();
  ForbiddenPhys.assign(NV, 0);
  CrossClobber.assign(NV, 0);
  Weight.assign(NV, 0);
  HintReg.assign(NV, -1);
  Referenced.assign(NV, false);

  // Block liveness of every register, physical and virtual.
  LivenessProblem P(MF.Blocks.size(), MF.NextVReg);
  std::vector<unsigned> Defs, Uses;
  for (const MBlock &B : MF.Blocks) {
    P.Succs[B.Id] = MF.successors(B.Id);
    for (auto II = B.Instrs.rbegin(); II != B.Instrs.rend(); ++II) {
      Defs.clear();
      Uses.clear();
      II->appendDefs(Defs);
      II->appendUses(Uses);
      for (unsigned D : Defs)
        P.def(B.Id, D);
      for (unsigned U : Uses)
        P.use(B.Id, U);
    }
  }
  std::vector<DynBitset> LiveOut = P.solve().Out;

  for (const MBlock &B : MF.Blocks) {
    DynBitset &Live = LiveOut[B.Id];
    long long Freq = freqOf(B.Id);
    for (auto II = B.Instrs.rbegin(); II != B.Instrs.rend(); ++II) {
      const MInstr &I = *II;
      Defs.clear();
      Uses.clear();
      I.appendDefs(Defs);
      I.appendUses(Uses);

      for (unsigned R : Defs)
        if (isVirtReg(R)) {
          Referenced[virtIndex(R)] = true;
          Weight[virtIndex(R)] += Freq;
        }
      for (unsigned R : Uses)
        if (isVirtReg(R)) {
          Referenced[virtIndex(R)] = true;
          Weight[virtIndex(R)] += Freq;
        }

      // Calls: everything live after the call crosses it and must
      // avoid what the call may clobber.
      if (I.isCall()) {
        RegMask Clobber = callClobber(I);
        for (ptrdiff_t R = Live.findFirst(); R >= 0; R = Live.findNext(R))
          if (isVirtReg(R))
            CrossClobber[virtIndex(R)] |= Clobber;
      }

      // Copy hints (MOV dst, src).
      if (I.Op == MOp::MOV && I.A.isReg() && I.B.isReg()) {
        unsigned Dst = I.A.RegNo, Src = I.B.RegNo;
        if (isVirtReg(Dst) && isPhysReg(Src))
          HintReg[virtIndex(Dst)] = static_cast<int>(Src);
        if (isVirtReg(Src) && isPhysReg(Dst))
          HintReg[virtIndex(Src)] = static_cast<int>(Dst);
      }

      // Interference: each def conflicts with everything live across the
      // def (minus the copy source for MOV, enabling coalesced colors).
      unsigned CopySrc = ~0u;
      if (I.Op == MOp::MOV && I.B.isReg())
        CopySrc = I.B.RegNo;
      for (unsigned D : Defs) {
        for (ptrdiff_t LB = Live.findFirst(); LB >= 0;
             LB = Live.findNext(LB)) {
          unsigned L = static_cast<unsigned>(LB);
          if (L == D || L == CopySrc)
            continue;
          if (isVirtReg(D) && isVirtReg(L)) {
            Pairs.push_back({virtIndex(D), virtIndex(L)});
          } else if (isVirtReg(D) && isPhysReg(L)) {
            ForbiddenPhys[virtIndex(D)] |= pr32::maskOf(L);
          } else if (isPhysReg(D) && isVirtReg(L)) {
            ForbiddenPhys[virtIndex(L)] |= pr32::maskOf(D);
          }
        }
      }

      for (unsigned D : Defs)
        Live.reset(D);
      for (unsigned U : Uses)
        Live.set(U);
    }
  }

  // Group the pairs by vreg, both directions, then drop the repeats in
  // each group in place (Seen[N] == V + 1: N is already listed for V).
  AdjStart.assign(NV + 1, 0);
  for (auto [A, B] : Pairs) {
    ++AdjStart[A + 1];
    ++AdjStart[B + 1];
  }
  for (unsigned V = 0; V < NV; ++V)
    AdjStart[V + 1] += AdjStart[V];
  AdjList.resize(AdjStart[NV]);
  std::vector<unsigned> End(AdjStart.begin(), AdjStart.end() - 1);
  for (auto [A, B] : Pairs) {
    AdjList[End[A]++] = B;
    AdjList[End[B]++] = A;
  }
  std::vector<unsigned> Seen(NV, 0);
  unsigned Kept = 0;
  for (unsigned V = 0; V < NV; ++V) {
    unsigned Begin = AdjStart[V];
    AdjStart[V] = Kept;
    for (unsigned E = Begin; E < End[V]; ++E)
      if (unsigned N = AdjList[E]; Seen[N] != V + 1) {
        Seen[N] = V + 1;
        AdjList[Kept++] = N;
      }
  }
  AdjStart[NV] = Kept;
}

bool Allocator::colorAll(bool TempsFirst) {
  unsigned NV = numVirt();
  Assignment.assign(NV, -1);
  ToSpill.clear();
  UsedCalleeSet = 0;
  UsedAnyCallee = 0;

  RegMask Reserved = Dir.promotedMask();
  RegMask FreePool = Dir.Free & ~Reserved;
  RegMask CalleePool = Dir.Callee & ~Reserved;
  // The caller pool honors the published budget on true caller-saves
  // registers (7.6.2); callee-saves scratch the CALLER augmentation
  // added is not part of the budget contract.
  RegMask CallerPool =
      (Dir.Caller & ~Reserved &
       (Dir.SelfCallerBudget | pr32::calleeSavedMask()));
  RegMask MSpillPool = (Dir.IsClusterRoot ? Dir.MSpill : RegMask(0)) &
                       ~Reserved;

  // Color in priority order: heavier first, then lower index; with
  // TempsFirst, every spill temp ahead of every other vreg.
  std::vector<std::pair<long long, unsigned>> Order;
  for (unsigned V = 0; V < NV; ++V)
    if (Referenced[V])
      Order.push_back({-Weight[V], V});
  std::sort(Order.begin(), Order.end());
  if (TempsFirst)
    std::stable_partition(Order.begin(), Order.end(), [this](auto Entry) {
      return NoSpill.count(VirtRegBase + Entry.second) != 0;
    });

  for (auto [NegWeight, V] : Order) {
    RegMask Conflicts = ForbiddenPhys[V];
    for (unsigned E = AdjStart[V]; E < AdjStart[V + 1]; ++E)
      if (int N = Assignment[AdjList[E]]; N >= 0)
        Conflicts |= pr32::maskOf(static_cast<unsigned>(N));

    // Candidate pools in preference order. A range crossing calls may
    // additionally use true caller-saves registers that none of the
    // crossed calls clobber (7.6.2) - the cheapest option when present.
    std::array<RegMask, 5> Pools;
    if (CrossClobber[V]) {
      RegMask SafeCaller =
          CallerPool & pr32::callerSavedMask() & ~CrossClobber[V];
      Pools = {SafeCaller, FreePool, CalleePool & UsedCalleeSet, CalleePool,
               0};
    } else {
      Pools = {CallerPool, MSpillPool, FreePool,
               CalleePool & UsedCalleeSet, CalleePool};
    }

    int Chosen = -1;
    // Try the copy hint first if it is permitted by some pool.
    if (HintReg[V] >= 0) {
      RegMask HintMask = pr32::maskOf(static_cast<unsigned>(HintReg[V]));
      if (!(Conflicts & HintMask)) {
        for (RegMask Pool : Pools)
          if (Pool & HintMask) {
            Chosen = HintReg[V];
            break;
          }
      }
    }
    if (Chosen < 0) {
      for (RegMask Pool : Pools) {
        RegMask Avail = Pool & ~Conflicts;
        if (Avail) {
          Chosen = __builtin_ctz(Avail);
          break;
        }
      }
    }

    if (Chosen < 0) {
      ToSpill.push_back(V);
      continue;
    }

    Assignment[V] = Chosen;
    unsigned ChosenReg = static_cast<unsigned>(Chosen);
    if (pr32::isCalleeSaved(ChosenReg)) {
      UsedAnyCallee |= pr32::maskOf(ChosenReg);
      if (CalleePool & pr32::maskOf(ChosenReg) &&
          !(FreePool & pr32::maskOf(ChosenReg)) &&
          !(MSpillPool & pr32::maskOf(ChosenReg)))
        UsedCalleeSet |= pr32::maskOf(ChosenReg);
    }
  }
  return ToSpill.empty();
}

bool Allocator::tempFailed() const {
  return std::any_of(ToSpill.begin(), ToSpill.end(), [this](unsigned V) {
    return NoSpill.count(VirtRegBase + V) != 0;
  });
}

void Allocator::spillVirtReg(unsigned V) {
  unsigned Reg = VirtRegBase + V;
  int Slot = MF.newFrameSlot(1);
  ++SpillCount;

  // A virtual register is only ever an explicit operand.
  auto Touches = [Reg](const MInstr &I) {
    return I.readsOperand(Reg) || I.writesOperand(Reg);
  };
  for (MBlock &B : MF.Blocks) {
    if (std::none_of(B.Instrs.begin(), B.Instrs.end(), Touches))
      continue;
    std::vector<MInstr> Out;
    Out.reserve(B.Instrs.size());
    for (MInstr &I : B.Instrs) {
      bool DefsReg = I.writesOperand(Reg);
      if (I.readsOperand(Reg)) {
        unsigned T = MF.newVReg();
        NoSpill.insert(T);
        Out.push_back(frameLoad(T, Slot));
        I.replaceRegUses(Reg, T);
      }
      if (DefsReg) {
        unsigned T = MF.newVReg();
        NoSpill.insert(T);
        I.replaceRegDefs(Reg, T);
        Out.push_back(std::move(I));
        Out.push_back(frameStore(T, Slot));
        continue;
      }
      Out.push_back(std::move(I));
    }
    B.Instrs = std::move(Out);
  }
}

void Allocator::rewriteAssigned() {
  for (MBlock &B : MF.Blocks) {
    std::vector<MInstr> Out;
    Out.reserve(B.Instrs.size());
    for (MInstr &I : B.Instrs) {
      for (MOperand *Op : {&I.A, &I.B, &I.C}) {
        if (Op->isReg() && isVirtReg(Op->RegNo)) {
          int Phys = Assignment[virtIndex(Op->RegNo)];
          assert(Phys >= 0 && "unassigned virtual register survived");
          Op->RegNo = static_cast<unsigned>(Phys);
        }
      }
      // Drop no-op moves produced by coalesced assignments.
      if (I.Op == MOp::MOV && I.A.isReg() && I.B.isReg() &&
          I.A.RegNo == I.B.RegNo)
        continue;
      Out.push_back(std::move(I));
    }
    B.Instrs = std::move(Out);
  }
}

RegAllocResult Allocator::run() {
  RegAllocResult Result;
  for (int Round = 0; Round < 16; ++Round) {
    ++Result.Rounds;
    buildInterference();
    // Spilling a spill temp would only make more temps, so when one
    // fails the round is colored again with the temps ahead of the rest;
    // if one still fails, allocation fails.
    bool Colored = colorAll(/*TempsFirst=*/false);
    if (!Colored && tempFailed())
      Colored = colorAll(/*TempsFirst=*/true);
    if (Colored) {
      rewriteAssigned();
      Result.Success = true;
      Result.UsedCalleeToSave = UsedCalleeSet;
      Result.CalleeRegsUsed = pr32::maskCount(UsedAnyCallee);
      Result.SpillCount = SpillCount;
      return Result;
    }
    if (tempFailed())
      break;
    for (unsigned V : ToSpill)
      spillVirtReg(V);
  }
  return Result; // Success == false: a temp failed, or no convergence.
}

RegAllocResult ipra::allocateRegisters(
    MachineFunction &MF, const ProcDirectives &Dir,
    const std::vector<long long> &BlockFreq,
    const CallClobberResolver &Clobbers) {
  Allocator A(MF, Dir, BlockFreq, Clobbers);
  return A.run();
}
