//===- CallProfile.h - Measured call counts --------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call counts of a profiling run — the role the paper's gprof data
/// plays (§6.1, columns B and F). The simulator collects one, and the
/// program analyzer reads it in place of its §6.2 heuristic estimates.
/// It lives in support because both sides, and the records that carry
/// it (the wire request, the retained analyzer run, the analyzer cache
/// key), share the one struct.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_CALLPROFILE_H
#define IPRA_SUPPORT_CALLPROFILE_H

#include <map>
#include <string>
#include <utility>

namespace ipra {

struct CallProfile {
  /// Invocations per procedure (qualified name).
  std::map<std::string, long long> CallCounts;
  /// Calls per (caller, callee) edge.
  std::map<std::pair<std::string, std::string>, long long> EdgeCounts;

  bool empty() const { return CallCounts.empty(); }
  bool operator==(const CallProfile &) const = default;

  /// Both maps with their keys (support/Json.h's Record): "calls" is an
  /// object, "edges" an array of [caller, callee, count] rows.
  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("calls", S.CallCounts);
    V("edges", S.EdgeCounts);
  }
};

/// The simulator's name for the profile a run collects.
using ProfileData = CallProfile;

} // namespace ipra

#endif // IPRA_SUPPORT_CALLPROFILE_H
