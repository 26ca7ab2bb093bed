//===- RecordLeaves.h - Walk and nudge a record's leaves -------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field-list-driven test helpers for support/Json.h records: visit
/// every leaf of a record, and make one copy per leaf with that leaf
/// nudged. A test that iterates a record's own field list this way
/// covers a knob added later without being edited.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_TESTS_RECORDLEAVES_H
#define IPRA_TESTS_RECORDLEAVES_H

#include "support/Json.h"

#include <cmath>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ipra::test {

/// Calls \p F(Path, Leaf) for every leaf field of record \p X, walking
/// nested records through their field lists ("profile.calls").
template <typename T, typename Fn>
void forEachLeaf(T &X, const std::string &Path, const Fn &F) {
  if constexpr (json::Record<T>)
    T::fields(X, [&](const char *Key, auto &M) {
      forEachLeaf(M, Path.empty() ? Key : Path + "." + Key, F);
    });
  else
    F(Path, X);
}

/// The smallest change to a leaf: bools and enums flip, integers step
/// by one, doubles move to the next representable value.
template <typename T> void nudge(T &X) {
  if constexpr (std::is_same_v<T, bool>)
    X = !X;
  else if constexpr (std::is_enum_v<T>)
    X = static_cast<T>(static_cast<int>(X) == 0 ? 1 : 0);
  else if constexpr (std::is_floating_point_v<T>)
    X = std::nextafter(X, std::numeric_limits<T>::infinity());
  else
    X = X + 1;
}

/// One copy of \p Base per leaf of its field list, that leaf nudged,
/// with the leaf's path.
template <typename T>
std::vector<std::pair<std::string, T>> nudgedCopies(const T &Base) {
  std::vector<std::string> Paths;
  T Probe = Base;
  forEachLeaf(Probe, "",
              [&](const std::string &P, auto &) { Paths.push_back(P); });
  std::vector<std::pair<std::string, T>> Out;
  for (const std::string &P : Paths) {
    T Copy = Base;
    forEachLeaf(Copy, "", [&](const std::string &Q, auto &Leaf) {
      if (Q == P)
        nudge(Leaf);
    });
    Out.emplace_back(P, Copy);
  }
  return Out;
}

} // namespace ipra::test

#endif // IPRA_TESTS_RECORDLEAVES_H
