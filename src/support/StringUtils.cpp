//===- StringUtils.cpp - Small string helpers -----------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <charconv>

using namespace ipra;

std::string ipra::join(const std::vector<std::string> &Parts,
                       const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

template <typename T>
bool ipra::parseInt(std::string_view Text, T &Value, int Base) {
  // from_chars takes no whitespace and no '+', and reports overflow.
  if (Text.empty())
    return false;
  T Parsed{};
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, Parsed, Base);
  if (Ec != std::errc() || Stop != End)
    return false;
  Value = Parsed;
  return true;
}

template bool ipra::parseInt(std::string_view, signed char &, int);
template bool ipra::parseInt(std::string_view, short &, int);
template bool ipra::parseInt(std::string_view, int &, int);
template bool ipra::parseInt(std::string_view, long &, int);
template bool ipra::parseInt(std::string_view, long long &, int);
template bool ipra::parseInt(std::string_view, unsigned char &, int);
template bool ipra::parseInt(std::string_view, unsigned short &, int);
template bool ipra::parseInt(std::string_view, unsigned &, int);
template bool ipra::parseInt(std::string_view, unsigned long &, int);
template bool ipra::parseInt(std::string_view, unsigned long long &, int);
