//===- DynBitset.h - Dynamically sized bitset ------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dynamically-sized bitset used for the analyzer's dataflow
/// sets (L_REF/P_REF/C_REF over eligible globals, §4.1.2).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_DYNBITSET_H
#define IPRA_SUPPORT_DYNBITSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ipra {

/// Fixed-universe bitset; all participants of an operation must share
/// the same universe size.
class DynBitset {
public:
  DynBitset() = default;
  explicit DynBitset(size_t Bits)
      : NumBits(Bits), Words((Bits + 63) / 64, 0) {}

  size_t size() const { return NumBits; }

  /// Grows (or shrinks) the universe; surviving bits are preserved and
  /// new bits start clear. Bits beyond the new size are discarded.
  void resize(size_t Bits) {
    NumBits = Bits;
    Words.resize((Bits + 63) / 64, 0);
    // Clear any stale bits in the final partial word after a shrink.
    if (NumBits % 64 != 0 && !Words.empty())
      Words.back() &= (uint64_t(1) << (NumBits % 64)) - 1;
  }

  void set(size_t Bit) {
    assert(Bit < NumBits);
    Words[Bit / 64] |= uint64_t(1) << (Bit % 64);
  }
  void reset(size_t Bit) {
    assert(Bit < NumBits);
    Words[Bit / 64] &= ~(uint64_t(1) << (Bit % 64));
  }
  bool test(size_t Bit) const {
    assert(Bit < NumBits);
    return Words[Bit / 64] >> (Bit % 64) & 1;
  }

  /// Returns true if this set changed.
  bool unionWith(const DynBitset &RHS) {
    assert(NumBits == RHS.NumBits);
    bool Changed = false;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t New = Words[W] | RHS.Words[W];
      if (New != Words[W]) {
        Words[W] = New;
        Changed = true;
      }
    }
    return Changed;
  }

  bool intersects(const DynBitset &RHS) const {
    assert(NumBits == RHS.NumBits);
    for (size_t W = 0; W < Words.size(); ++W)
      if (Words[W] & RHS.Words[W])
        return true;
    return false;
  }

  // -- Zero-extended variants -------------------------------------------
  // These tolerate different universe sizes by treating missing high
  // words as zero; NodeSet (an auto-growing set of node ids) is built on
  // them.

  /// Word-parallel overlap test across different universe sizes.
  bool intersectsZeroExtended(const DynBitset &RHS) const {
    size_t Common =
        Words.size() < RHS.Words.size() ? Words.size() : RHS.Words.size();
    for (size_t W = 0; W < Common; ++W)
      if (Words[W] & RHS.Words[W])
        return true;
    return false;
  }

  /// Word-parallel logical equality across different universe sizes.
  bool equalsZeroExtended(const DynBitset &RHS) const {
    size_t Common =
        Words.size() < RHS.Words.size() ? Words.size() : RHS.Words.size();
    for (size_t W = 0; W < Common; ++W)
      if (Words[W] != RHS.Words[W])
        return false;
    for (size_t W = Common; W < Words.size(); ++W)
      if (Words[W])
        return false;
    for (size_t W = Common; W < RHS.Words.size(); ++W)
      if (RHS.Words[W])
        return false;
    return true;
  }

  /// Union in a possibly-smaller RHS; the receiver must already span
  /// RHS's universe. Returns true if this set changed.
  bool unionWithZeroExtended(const DynBitset &RHS) {
    assert(Words.size() >= RHS.Words.size());
    bool Changed = false;
    for (size_t W = 0; W < RHS.Words.size(); ++W) {
      uint64_t New = Words[W] | RHS.Words[W];
      if (New != Words[W]) {
        Words[W] = New;
        Changed = true;
      }
    }
    return Changed;
  }

  /// Symmetric difference: flips every bit set in \p RHS. Returns true
  /// if this set changed. (A XOR accumulator over old/new value pairs
  /// yields the positions that differ anywhere — the delta analyzer's
  /// touched-global tracking.)
  bool xorWith(const DynBitset &RHS) {
    assert(NumBits == RHS.NumBits);
    bool Changed = false;
    for (size_t W = 0; W < Words.size(); ++W) {
      if (RHS.Words[W]) {
        Words[W] ^= RHS.Words[W];
        Changed = true;
      }
    }
    return Changed;
  }

  /// Removes every bit set in \p RHS; returns true if this set changed.
  bool subtract(const DynBitset &RHS) {
    assert(NumBits == RHS.NumBits);
    bool Changed = false;
    for (size_t W = 0; W < Words.size(); ++W) {
      uint64_t New = Words[W] & ~RHS.Words[W];
      if (New != Words[W]) {
        Words[W] = New;
        Changed = true;
      }
    }
    return Changed;
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  /// Index of the first set bit, or -1 when empty. O(words).
  ptrdiff_t findFirst() const { return findNext(-1); }

  /// Index of the first set bit strictly after \p Prev (-1 allowed), or
  /// -1 when none remains. Skips clear words, so a full iteration is
  /// O(words + popcount), not O(universe).
  ptrdiff_t findNext(ptrdiff_t Prev) const {
    size_t Bit = static_cast<size_t>(Prev + 1);
    if (Bit >= NumBits)
      return -1;
    size_t W = Bit / 64;
    uint64_t Word = Words[W] >> (Bit % 64);
    if (Word)
      return static_cast<ptrdiff_t>(Bit + __builtin_ctzll(Word));
    for (++W; W < Words.size(); ++W)
      if (Words[W])
        return static_cast<ptrdiff_t>(W * 64 + __builtin_ctzll(Words[W]));
    return -1;
  }

  bool any() const {
    for (uint64_t W : Words)
      if (W)
        return true;
    return false;
  }

  size_t count() const {
    size_t N = 0;
    for (uint64_t W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  /// Indices of set bits, ascending.
  std::vector<size_t> bits() const {
    std::vector<size_t> Out;
    for (ptrdiff_t B = findFirst(); B >= 0; B = findNext(B))
      Out.push_back(static_cast<size_t>(B));
    return Out;
  }

  bool operator==(const DynBitset &RHS) const = default;

private:
  size_t NumBits = 0;
  std::vector<uint64_t> Words;
};

} // namespace ipra

#endif // IPRA_SUPPORT_DYNBITSET_H
