//===- StringUtils.h - Small string helpers --------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the artifact line codec, the option parsers
/// and test/bench table printers.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_STRINGUTILS_H
#define IPRA_SUPPORT_STRINGUTILS_H

#include <string>
#include <string_view>
#include <vector>

namespace ipra {

/// Joins \p Parts with \p Sep between consecutive elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Parses all of \p Text as an integer of \p Value's type, in base
/// \p Base (10 or 16). Strict: no whitespace, no '+' (and no '-' for an
/// unsigned type), no trailing characters, and a value out of the type's
/// range is an error. Returns false and leaves \p Value alone on any of
/// them. Defined for every standard signed and unsigned integer type.
template <typename T>
bool parseInt(std::string_view Text, T &Value, int Base = 10);

/// Sets \p Out to the enumerator whose name in \p Names (indexed in
/// enumerator order) is \p Text; false when no name matches.
template <typename E, size_t N>
bool enumFromTable(std::string_view Text, const char *const (&Names)[N],
                   E &Out) {
  for (size_t I = 0; I < N; ++I)
    if (Text == Names[I]) {
      Out = static_cast<E>(I);
      return true;
    }
  return false;
}

} // namespace ipra

#endif // IPRA_SUPPORT_STRINGUTILS_H
