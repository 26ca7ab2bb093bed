//===- Arith.h - The 32-bit operator kernel ---------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of MiniC's 32-bit binary operators and of
/// negation (docs/LANGUAGE.md, "Semantics pinned down"). The constant
/// folder, the IR interpreter and the PR32 simulator all evaluate
/// through it, so the folder's results and both oracles' agree by
/// construction; tests/support/arith_spec_test.cpp holds hand-written
/// expected values that catch a wrong rule here.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_ARITH_H
#define IPRA_SUPPORT_ARITH_H

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace ipra {

/// Binary operation kinds (IROp::Bin). Comparison results are 0/1; the
/// six comparisons come last.
enum class BinKind : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
};

/// Each kind's lowercase name, in enumerator order (the IR printer's
/// mnemonics).
inline constexpr const char *BinKindNames[] = {
    "add", "sub", "mul", "div", "rem", "and", "or", "xor",
    "shl", "shr", "lt",  "le",  "gt",  "ge",  "eq", "ne"};
static_assert(std::size(BinKindNames) ==
              static_cast<size_t>(BinKind::Ne) + 1);

/// Returns true for the six comparison kinds.
constexpr bool isCompare(BinKind BK) { return BK >= BinKind::Lt; }

/// \p L <BK> \p R on 32-bit values: arithmetic wraps, x / 0 and x % 0
/// are 0, INT32_MIN / -1 wraps to INT32_MIN (and its remainder is 0),
/// division truncates, shift counts are masked to 5 bits and >> is
/// arithmetic.
constexpr int32_t evalBin(BinKind BK, int32_t L, int32_t R) {
  auto UL = static_cast<uint32_t>(L);
  auto UR = static_cast<uint32_t>(R);
  switch (BK) {
  case BinKind::Add:
    return static_cast<int32_t>(UL + UR);
  case BinKind::Sub:
    return static_cast<int32_t>(UL - UR);
  case BinKind::Mul:
    return static_cast<int32_t>(UL * UR);
  case BinKind::Div:
    return R == 0 ? 0 : (L == INT32_MIN && R == -1 ? L : L / R);
  case BinKind::Rem:
    return R == 0 ? 0 : (L == INT32_MIN && R == -1 ? 0 : L % R);
  case BinKind::And:
    return L & R;
  case BinKind::Or:
    return L | R;
  case BinKind::Xor:
    return L ^ R;
  case BinKind::Shl:
    return static_cast<int32_t>(UL << (UR & 31));
  case BinKind::Shr:
    return L >> (UR & 31);
  case BinKind::Lt:
    return L < R;
  case BinKind::Le:
    return L <= R;
  case BinKind::Gt:
    return L > R;
  case BinKind::Ge:
    return L >= R;
  case BinKind::Eq:
    return L == R;
  case BinKind::Ne:
    return L != R;
  }
  return 0;
}

/// -\p V, wrapping (the negation of INT32_MIN is INT32_MIN).
constexpr int32_t evalNeg(int32_t V) {
  return static_cast<int32_t>(0u - static_cast<uint32_t>(V));
}

} // namespace ipra

#endif // IPRA_SUPPORT_ARITH_H
