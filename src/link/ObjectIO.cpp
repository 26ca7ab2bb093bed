//===- ObjectIO.cpp - Object file serialization ----------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "link/ObjectIO.h"

#include "support/LineCodec.h"

#include <algorithm>
#include <span>

using namespace ipra;

namespace {

bool hasCond(MOp Op) { return Op == MOp::CMP || Op == MOp::CB; }

/// The `i` line's first token, <op>[.<cc>][/<mc>]: the condition on cmp
/// and cb only, the memory class only when there is one.
template <typename Instr> struct Opcode {
  Instr &I;
};

} // namespace

// Token hooks for the line codec (support/LineCodec.h), found by
// argument-dependent lookup.
namespace ipra {

template <typename Instr>
void appendToken(std::string &Out, const Opcode<Instr> &Op) {
  Out += mopName(Op.I.Op);
  if (hasCond(Op.I.Op))
    (Out += '.') += condName(Op.I.CC);
  if (Op.I.MC != MemClass::None)
    (Out += '/') += MemClassNames[static_cast<int>(Op.I.MC)];
}

static bool parseToken(std::string_view Text, Opcode<MInstr> &Op) {
  MInstr &I = Op.I;
  const size_t Slash = Text.find('/'), Dot = Text.find('.');
  if (Slash != std::string_view::npos &&
      (!enumFromTable(Text.substr(Slash + 1), MemClassNames, I.MC) ||
       I.MC == MemClass::None))
    return false;
  Text = Text.substr(0, Slash);
  if (!enumFromTable(Text.substr(0, Dot), MOpNames, I.Op) ||
      hasCond(I.Op) != (Dot != std::string_view::npos))
    return false;
  return !hasCond(I.Op) ||
         enumFromTable(Text.substr(Dot + 1), CondNames, I.CC);
}

/// Operands (see ObjectIO.h); none is the empty token.
static void appendToken(std::string &Out, const MOperand &Op) {
  switch (Op.Kind) {
  case MOperand::None:
    return;
  case MOperand::Reg:
    Out += 'r';
    return codec::appendInt(Out, Op.RegNo);
  case MOperand::Imm:
    Out += '#';
    return codec::appendInt(Out, Op.ImmVal);
  case MOperand::Sym:
    Out += '@';
    Out += Op.SymName;
    return;
  case MOperand::Label:
    Out += 'L';
    return codec::appendInt(Out, Op.LabelId);
  case MOperand::Frame: // Never emitted: frame lowering resolves them.
    Out += "fi";
    return codec::appendInt(Out, Op.FrameIdx);
  }
}

static bool parseToken(std::string_view Text, MOperand &Op) {
  std::string_view Rest = Text.substr(std::min<size_t>(1, Text.size()));
  switch (Text.empty() || Rest.empty() ? 0 : Text[0]) {
  case 'r':
    Op.Kind = MOperand::Reg;
    return parseInt(Rest, Op.RegNo);
  case '#':
    Op.Kind = MOperand::Imm;
    return parseInt(Rest, Op.ImmVal);
  case '@':
    Op = MOperand::makeSym(std::string(Rest));
    return true;
  case 'L':
    Op.Kind = MOperand::Label;
    return parseInt(Rest, Op.LabelId);
  }
  return false;
}

} // namespace ipra

namespace {

/// An `init` line: up to 16 words appended to the global above it.
constexpr auto InitFields = [](auto &Words, auto &V) {
  V.rest("init word", Words);
};
constexpr size_t WordsPerInitLine = 16;

/// The `i` line: args= and ret on calls only.
constexpr auto InstrFields = [](auto &I, auto &V) {
  Opcode<std::remove_reference_t<decltype(I)>> Op{I};
  V.pos("opcode", Op);
  V.optPos("operand", I.A);
  V.optPos("operand", I.B);
  V.optPos("operand", I.C);
  V.when(I.isCall(), "args", I.NumArgs);
  V.flag(I.isCall(), "ret", I.HasResult);
};

/// The object's record kinds and the kind each belongs to.
enum ObjectKind { Object, Global, Init, Func, Instr };
constexpr codec::Kind ObjectKinds[] = {
    {"object"}, {"global"}, {"init", Global}, {"func", -1, true},
    {"i", Func}};

} // namespace

std::string ipra::writeObjectFile(const ObjectFile &Obj) {
  std::string Out;
  codec::write(Out, "object", Obj.Module);
  for (const ObjGlobal &G : Obj.Globals) {
    codec::write(Out, "global", G);
    std::span<const int32_t> Words(G.Init);
    for (size_t W = 0; W < Words.size(); W += WordsPerInitLine)
      codec::write(Out, "init",
                   Words.subspan(W, std::min(WordsPerInitLine,
                                             Words.size() - W)),
                   InitFields);
  }
  for (const ObjFunction &F : Obj.Functions) {
    codec::write(Out, "func", F.QualName);
    for (const MInstr &I : F.Code)
      codec::write(Out, "i", I, InstrFields);
    Out += "end\n";
  }
  return Out;
}

bool ipra::readObjectFile(const std::string &Text, ObjectFile &Out,
                          std::string &Error) {
  Out = ObjectFile();
  codec::LineReader L(Text);
  auto Record = [&](int Kind) -> bool {
    switch (Kind) {
    case Object:
      return codec::read(L, Out.Module, Error);
    case Global:
      return codec::read(L, Out.Globals.emplace_back(), Error);
    case Init:
      return codec::read(L, Out.Globals.back().Init, Error, InitFields);
    case Func:
      return codec::read(L, Out.Functions.emplace_back().QualName, Error);
    default:
      return codec::read(L, Out.Functions.back().Code.emplace_back(), Error,
                         InstrFields);
    }
  };
  if (!codec::readRecords(L, ObjectKinds, Record, Error))
    return false;
  if (Out.Module.empty())
    Error = "missing 'object' record";
  return !Out.Module.empty();
}
