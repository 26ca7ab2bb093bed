//===- Status.h - Unified error propagation --------------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one error path for every phase and service entry point, in a
/// shape that crosses the wire protocol unchanged:
///
///  - Status carries success/failure plus the full Diagnostics list
///    (located front-end diagnostics and bare pipeline-level errors
///    alike) and an optional machine-readable Code used by the build
///    service ("busy", "shutdown", "config-mismatch", "transport").
///  - Result<T> is a Status plus a payload; every phase entry point is
///    a Result<T> (the named per-phase result structs derive from
///    Status, and Pipeline::execute returns Result<BuildResponse>).
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_STATUS_H
#define IPRA_SUPPORT_STATUS_H

#include "support/Diagnostics.h"

#include <string>
#include <utility>

namespace ipra {

/// Outcome of one phase, request, or service call. Default-constructed
/// as a failure with no diagnostics (phases that return early without
/// setting Ok stay failures, matching the old PhaseStatus::Error
/// default).
struct Status {
  bool Ok = false;
  /// Machine-readable failure class for service replies; empty for
  /// plain phase failures. Stable values: "busy" (admission control
  /// backpressure — retry later), "shutdown" (daemon draining),
  /// "config-mismatch" (request configuration does not match the
  /// pipeline's), "transport" (client/daemon framing failure),
  /// "bad-request" (undecodable wire request).
  std::string Code;
  Diagnostics Diags;

  bool ok() const { return Ok; }
  /// Renders the diagnostics as one string.
  std::string text() const { return Diags.text(); }

  static Status success() {
    Status S;
    S.Ok = true;
    return S;
  }
  static Status error(std::string Message, std::string Code = "") {
    Status S;
    S.Code = std::move(Code);
    S.Diags.error(std::move(Message));
    return S;
  }
  static Status fromDiagnostics(Diagnostics D) {
    Status S;
    S.Ok = !D.hasErrors();
    S.Diags = std::move(D);
    return S;
  }
};

/// A Status plus a payload, the shape of every new-style entry point.
/// Deriving from Status keeps call sites terse (R.ok(), R.Diags,
/// R.text()) and lets the named per-phase result structs share the
/// exact same error path.
template <typename T> struct Result : Status {
  T Value{};

  static Result success(T V) {
    Result R;
    static_cast<Status &>(R) = Status::success();
    R.Value = std::move(V);
    return R;
  }
  static Result failure(Status S) {
    Result R;
    static_cast<Status &>(R) = std::move(S);
    R.Ok = false;
    return R;
  }
  static Result failure(std::string Message, std::string Code = "") {
    return failure(Status::error(std::move(Message), std::move(Code)));
  }

  T &operator*() { return Value; }
  const T &operator*() const { return Value; }
  T *operator->() { return &Value; }
  const T *operator->() const { return &Value; }
};

} // namespace ipra

#endif // IPRA_SUPPORT_STATUS_H
