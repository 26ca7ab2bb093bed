//===- PipelineStats.cpp - Pipeline timing instrumentation ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "driver/PipelineStats.h"

#include "core/DeltaAnalyzer.h"
#include "support/Json.h"

#include <iomanip>
#include <sstream>

using namespace ipra;

namespace {

/// Prints \p Rec as "Indent Label: key=value ..." over its leaves, then
/// each nested record and each element of a list of records on its own
/// line below, indented two more spaces.
template <record::Record R>
void printRecord(std::ostream &OS, const std::string &Indent,
                 const std::string &Label, const R &Rec) {
  OS << Indent << Label << ':';
  R::fields(Rec, [&OS](const char *Key, const auto &F) {
    using T = std::remove_cvref_t<decltype(F)>;
    if constexpr (std::is_floating_point_v<T>)
      OS << ' ' << Key << '=' << std::fixed << std::setprecision(2) << F;
    else if constexpr (!record::Record<T> && !json::IsVector<T>::value)
      OS << ' ' << Key << '=' << json::encode(F).dump();
  });
  OS << '\n';
  R::fields(Rec, [&](const char *Key, const auto &F) {
    using T = std::remove_cvref_t<decltype(F)>;
    if constexpr (record::Record<T>)
      printRecord(OS, Indent + "  ", Key, F);
    else if constexpr (json::IsVector<T>::value)
      for (size_t I = 0; I < F.size(); ++I)
        printRecord(OS, Indent + "  ",
                    std::string(Key) + "[" + std::to_string(I) + "]", F[I]);
  });
}

} // namespace

std::string PipelineStats::toString(const AnalyzerStats &A,
                                   const DeltaStats &D) const {
  std::ostringstream OS;
  printRecord(OS, "", "pipeline", *this);
  printRecord(OS, "", "analyzer", A);
  printRecord(OS, "", "delta", D);
  return OS.str();
}
