//===- Record.h - Records and the walks over their field lists -*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A record lists its fields once, in a static member template
/// `fields(Self &S, Visit &&V)` that calls `V(Key, S.Member)` for every
/// member, in order; Self is the record or its const form. A list may
/// flatten a nested record by calling that record's list with its
/// visitor. support/Json.h encodes and decodes records by their lists;
/// the walks here zero a record's timings and sum two records.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_RECORD_H
#define IPRA_SUPPORT_RECORD_H

#include <cstddef>
#include <string_view>
#include <type_traits>

namespace ipra::record {

template <typename R>
concept Record = requires(R &Rec) {
  R::fields(Rec, [](const char *, auto &) {});
};

/// The timing mark: a wall-clock field's key ends in "-ms", and no
/// other field's does. Timings differ run to run; every other leaf of a
/// statistics record is exact.
constexpr bool isTiming(std::string_view Key) { return Key.ends_with("-ms"); }

/// Sets every timing of \p Rec, nested records included, to zero.
template <Record R> void zeroTimings(R &Rec) {
  R::fields(Rec, [](const char *Key, auto &F) {
    using T = std::remove_cvref_t<decltype(F)>;
    if constexpr (Record<T>)
      zeroTimings(F);
    else if constexpr (std::is_arithmetic_v<T>)
      F = isTiming(Key) ? T() : F;
  });
}

/// Adds every number of \p From to the same field of \p Into, nested
/// records included; flags, names, enums and lists stay. Row I finds its
/// partner by walking \p From's list again: quadratic in a short list,
/// but free of allocation, for sums taken once per function.
template <Record R> void add(R &Into, const R &From) {
  size_t I = 0;
  R::fields(Into, [&](const char *, auto &F) {
    using T = std::remove_cvref_t<decltype(F)>;
    size_t J = 0;
    R::fields(From, [&](const char *, const auto &G) {
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(G)>, T>) {
        if (J == I) {
          if constexpr (Record<T>)
            add(F, G);
          else if constexpr (std::is_arithmetic_v<T> &&
                             !std::is_same_v<T, bool>)
            F += G;
        }
      }
      ++J;
    });
    ++I;
  });
}

} // namespace ipra::record

#endif // IPRA_SUPPORT_RECORD_H
