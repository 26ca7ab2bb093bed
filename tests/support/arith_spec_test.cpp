//===- arith_spec_test.cpp - The 32-bit operator semantics, by hand -------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The rules of docs/LANGUAGE.md ("Semantics pinned down") as literal rows.
// The constant folders, the IR interpreter and the PR32 simulator all
// evaluate through support/Arith.h, so they cannot disagree with each
// other; these rows are what catches the kernel itself being wrong. No
// expected value here is computed, and each row is checked four ways:
// the kernel, both folders, the interpreter and the simulator.
//
//===----------------------------------------------------------------------===//

#include "ir/Interp.h"
#include "opt/Passes.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <set>

using namespace ipra;

namespace {

constexpr int32_t Min = INT32_MIN;
constexpr int32_t Max = INT32_MAX;

struct BinRow {
  BinKind BK;
  int32_t L, R, Expected;
};

constexpr BinRow BinRows[] = {
    // Wrapping + - * at the ends of the range.
    {BinKind::Add, 2, 3, 5},
    {BinKind::Add, Max, 1, Min},
    {BinKind::Add, Min, -1, Max},
    {BinKind::Add, Max, Max, -2},
    {BinKind::Sub, 2, 5, -3},
    {BinKind::Sub, Min, 1, Max},
    {BinKind::Sub, Max, -1, Min},
    {BinKind::Sub, 0, Min, Min},
    {BinKind::Mul, -6, 7, -42},
    {BinKind::Mul, Max, 2, -2},
    {BinKind::Mul, Min, -1, Min},
    {BinKind::Mul, 65536, 65536, 0},
    {BinKind::Mul, Max, Max, 1},
    // Division truncates toward zero; x / 0 == 0; INT32_MIN / -1 wraps.
    {BinKind::Div, 42, 5, 8},
    {BinKind::Div, -7, 2, -3},
    {BinKind::Div, 7, -2, -3},
    {BinKind::Div, -7, -2, 3},
    {BinKind::Div, 7, 0, 0},
    {BinKind::Div, Min, 0, 0},
    {BinKind::Div, Min, -1, Min},
    {BinKind::Div, Min, 1, Min},
    {BinKind::Rem, 42, 5, 2},
    {BinKind::Rem, -7, 2, -1},
    {BinKind::Rem, 7, -2, 1},
    {BinKind::Rem, -7, -2, -1},
    {BinKind::Rem, 7, 0, 0},
    {BinKind::Rem, Min, -1, 0},
    {BinKind::Rem, Min, 3, -2},
    // Bitwise.
    {BinKind::And, -1, 0x0F0F, 0x0F0F},
    {BinKind::And, Min, Max, 0},
    {BinKind::Or, Min, 1, -2147483647},
    {BinKind::Or, 0x0F00, 0x00F0, 0x0FF0},
    {BinKind::Xor, -1, 5, -6},
    {BinKind::Xor, Min, -1, Max},
    // Shift counts are masked to 5 bits; >> is arithmetic.
    {BinKind::Shl, 1, 4, 16},
    {BinKind::Shl, 1, 31, Min},
    {BinKind::Shl, 1, 32, 1},
    {BinKind::Shl, 1, 33, 2},
    {BinKind::Shl, 1, -1, Min},
    {BinKind::Shl, 3, 31, Min},
    {BinKind::Shr, 16, 2, 4},
    {BinKind::Shr, -8, 1, -4},
    {BinKind::Shr, -1, 31, -1},
    {BinKind::Shr, Min, 31, -1},
    {BinKind::Shr, Max, 31, 0},
    {BinKind::Shr, 16, 32, 16},
    {BinKind::Shr, 16, 33, 8},
    {BinKind::Shr, Min, -1, -1},
    // Signed compares, across zero and at the ends of the range.
    {BinKind::Lt, -1, 0, 1},
    {BinKind::Lt, 0, -1, 0},
    {BinKind::Lt, Min, Max, 1},
    {BinKind::Lt, 3, 3, 0},
    {BinKind::Le, -1, -1, 1},
    {BinKind::Le, 0, -1, 0},
    {BinKind::Le, Min, 0, 1},
    {BinKind::Gt, 1, -1, 1},
    {BinKind::Gt, -1, 1, 0},
    {BinKind::Gt, Max, Min, 1},
    {BinKind::Gt, 3, 3, 0},
    {BinKind::Ge, 0, -1, 1},
    {BinKind::Ge, Min, 0, 0},
    {BinKind::Ge, -5, -5, 1},
    {BinKind::Eq, -1, -1, 1},
    {BinKind::Eq, Min, Max, 0},
    {BinKind::Eq, 0, -1, 0},
    {BinKind::Ne, 0, -1, 1},
    {BinKind::Ne, 5, 5, 0},
    {BinKind::Ne, Min, Max, 1},
};

// A sample of the rows, settled at compile time.
static_assert(evalBin(BinKind::Add, Max, 1) == Min);
static_assert(evalBin(BinKind::Div, Min, -1) == Min);
static_assert(evalBin(BinKind::Rem, Min, -1) == 0);
static_assert(evalBin(BinKind::Div, -7, 2) == -3);
static_assert(evalBin(BinKind::Div, 7, 0) == 0);
static_assert(evalBin(BinKind::Shl, 1, 33) == 2);
static_assert(evalBin(BinKind::Shr, Min, 31) == -1);
static_assert(evalBin(BinKind::Lt, -1, 0) == 1);
static_assert(evalNeg(Min) == Min);

/// Negation (IROp::Neg) and complement (IROp::Not) of one value.
struct UnaryRow {
  IROp Op;
  int32_t V, Expected;
};

constexpr UnaryRow UnaryRows[] = {
    {IROp::Neg, 5, -5},
    {IROp::Neg, -5, 5},
    {IROp::Neg, 0, 0},
    {IROp::Neg, Max, -2147483647},
    {IROp::Neg, Min, Min},
    {IROp::Not, 0, -1},
    {IROp::Not, Min, Max},
    {IROp::Not, 5, -6},
};

std::string label(const BinRow &Row) {
  return std::string(BinKindNames[static_cast<int>(Row.BK)]) + " " +
         std::to_string(Row.L) + ", " + std::to_string(Row.R);
}
std::string label(const UnaryRow &Row) {
  return std::string(Row.Op == IROp::Neg ? "neg " : "not ") +
         std::to_string(Row.V);
}

/// main() { return <the row's operation on constants>; } in IR: the
/// operands are Const instructions, the result is vreg NumVRegs - 1.
std::unique_ptr<IRModule> rowModule(IROp Op, BinKind BK,
                                    std::vector<int32_t> Operands) {
  auto M = std::make_unique<IRModule>();
  M->Name = "spec.mc";
  auto F = std::make_unique<IRFunction>();
  F->Name = "main";
  F->Module = M->Name;
  F->ReturnsValue = true;
  IRBlock *B = F->newBlock();
  IRInstr I;
  I.Op = Op;
  I.BK = BK;
  I.HasDst = true;
  for (int32_t V : Operands) {
    unsigned Reg = F->newVReg();
    B->Instrs.push_back(constInstr(Reg, V));
    I.Srcs.push_back(Reg);
  }
  I.Dst = F->newVReg();
  B->Instrs.push_back(I);
  IRInstr Ret;
  Ret.Op = IROp::Ret;
  Ret.Srcs = {I.Dst};
  B->Instrs.push_back(Ret);
  M->Functions.push_back(std::move(F));
  return M;
}
std::unique_ptr<IRModule> rowModule(const BinRow &Row) {
  return rowModule(IROp::Bin, Row.BK, {Row.L, Row.R});
}
std::unique_ptr<IRModule> rowModule(const UnaryRow &Row) {
  return rowModule(Row.Op, BinKind::Add, {Row.V});
}

/// Runs each folder on the row's module: the operation must have become
/// a Const holding the expected value.
template <typename Row> void expectFolded(const Row &R) {
  for (bool (*Fold)(IRFunction &) :
       {simplifyInstructions, propagateConstantsAndCopies}) {
    auto M = rowModule(R);
    IRFunction &F = *M->Functions.front();
    Fold(F);
    const IRInstr &Result = F.entry()->Instrs[F.entry()->Instrs.size() - 2];
    ASSERT_EQ(Result.Op, IROp::Const) << label(R);
    EXPECT_EQ(Result.Imm, R.Expected) << label(R);
  }
}

template <typename Row> void expectInterpreted(const Row &R) {
  auto M = rowModule(R);
  IRRunResult Run = interpretIR({M.get()});
  ASSERT_TRUE(Run.Ok) << label(R) << ": " << Run.Error;
  EXPECT_EQ(Run.ExitCode, R.Expected) << label(R);
}

MInstr instr(MOp Op, MOperand A, MOperand B = {}, MOperand C = {}) {
  MInstr I;
  I.Op = Op;
  I.A = std::move(A);
  I.B = std::move(B);
  I.C = std::move(C);
  return I;
}
MOperand reg(unsigned R) { return MOperand::makeReg(R); }
MOperand imm(int32_t V) { return MOperand::makeImm(V); }

/// Runs \p Body as main after the stub (BL 2; HALT), so Body[K] sits at
/// pc K + 2; returns main's exit code.
int32_t simulate(std::vector<MInstr> Body, const std::string &What) {
  Executable Exe;
  MInstr Call = instr(MOp::BL, imm(2));
  Call.HasResult = true;
  Exe.Code = {Call, instr(MOp::HALT, {})};
  Exe.Code.insert(Exe.Code.end(), Body.begin(), Body.end());
  Exe.Symbols.push_back(
      ExeSymbol{"main", 2, static_cast<int>(Exe.Code.size())});
  Exe.StackWords = 64;
  RunResult Run = runExecutable(Exe);
  EXPECT_TRUE(Run.Halted) << What << ": " << Run.Trap;
  return Run.ExitCode;
}

/// r19 = L; r20 = R; then \p Op (an ALU opcode or CMP) into RV, with
/// the right operand in r20 and as an immediate.
void expectSimulated(const BinRow &Row) {
  const BinForm &Form = binForm(Row.BK);
  for (MOperand Right : {reg(20), imm(Row.R)}) {
    MInstr Op = instr(Form.Op, reg(pr32::RV), reg(19), Right);
    Op.CC = Form.CC;
    std::string What = label(Row) + " via " + Op.toString();
    EXPECT_EQ(simulate({instr(MOp::LDI, reg(19), imm(Row.L)),
                        instr(MOp::LDI, reg(20), imm(Row.R)), Op,
                        instr(MOp::BV, reg(pr32::RP))},
                       What),
              Row.Expected)
        << What;
  }
  if (!isCompare(Row.BK))
    return;
  // CB to pc 7 returns 1; falling through returns 0.
  for (MOperand Right : {reg(20), imm(Row.R)}) {
    MInstr Branch = instr(MOp::CB, reg(19), Right, imm(7));
    Branch.CC = Form.CC;
    std::string What = label(Row) + " via " + Branch.toString();
    EXPECT_EQ(simulate({instr(MOp::LDI, reg(19), imm(Row.L)),
                        instr(MOp::LDI, reg(20), imm(Row.R)), Branch,
                        instr(MOp::LDI, reg(pr32::RV), imm(0)),
                        instr(MOp::BV, reg(pr32::RP)),
                        instr(MOp::LDI, reg(pr32::RV), imm(1)),
                        instr(MOp::BV, reg(pr32::RP))},
                       What),
              Row.Expected)
        << What;
  }
}
void expectSimulated(const UnaryRow &Row) {
  MOp Op = Row.Op == IROp::Neg ? MOp::NEG : MOp::NOT;
  EXPECT_EQ(simulate({instr(MOp::LDI, reg(19), imm(Row.V)),
                      instr(Op, reg(pr32::RV), reg(19)),
                      instr(MOp::BV, reg(pr32::RP))},
                     label(Row)),
            Row.Expected)
      << label(Row);
}

TEST(ArithSpecTest, RowsCoverEveryKind) {
  std::set<BinKind> Kinds;
  for (const BinRow &Row : BinRows)
    Kinds.insert(Row.BK);
  EXPECT_EQ(Kinds.size(), std::size(BinKindNames));
}

TEST(ArithSpecTest, Kernel) {
  for (const BinRow &Row : BinRows)
    EXPECT_EQ(evalBin(Row.BK, Row.L, Row.R), Row.Expected) << label(Row);
  for (const UnaryRow &Row : UnaryRows)
    EXPECT_EQ(Row.Op == IROp::Neg ? evalNeg(Row.V) : ~Row.V, Row.Expected)
        << label(Row);
}

TEST(ArithSpecTest, Folders) {
  for (const BinRow &Row : BinRows)
    expectFolded(Row);
  for (const UnaryRow &Row : UnaryRows)
    expectFolded(Row);
}

TEST(ArithSpecTest, Interpreter) {
  for (const BinRow &Row : BinRows)
    expectInterpreted(Row);
  for (const UnaryRow &Row : UnaryRows)
    expectInterpreted(Row);
}

TEST(ArithSpecTest, Simulator) {
  for (const BinRow &Row : BinRows)
    expectSimulated(Row);
  for (const UnaryRow &Row : UnaryRows)
    expectSimulated(Row);
}

TEST(ArithSpecTest, FormsRoundTrip) {
  // Every kind's PR32 form decodes back to the kind, for CB too.
  for (int K = 0; K < static_cast<int>(std::size(BinForms)); ++K) {
    auto BK = static_cast<BinKind>(K);
    EXPECT_EQ(binKindOf(binForm(BK).Op, binForm(BK).CC), BK) << K;
    EXPECT_EQ(binForm(BK).Op == MOp::CMP, isCompare(BK)) << K;
    if (isCompare(BK)) {
      EXPECT_EQ(binKindOf(MOp::CB, binForm(BK).CC), BK) << K;
    }
  }
}

} // namespace
