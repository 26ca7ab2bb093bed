//===- Json.cpp - Minimal JSON values for the service protocol ------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace ipra;
using namespace ipra::json;

const Value *Value::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

std::string json::quote(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  Out += '"';
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  Out += '"';
  return Out;
}

namespace {

void dumpNumber(std::string &Out, double N) {
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 9e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(N));
    Out += Buf;
  } else if (std::isfinite(N)) {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", N);
    Out += Buf;
  } else {
    Out += "null"; // JSON has no Inf/NaN; degrade explicitly.
  }
}

void dumpValue(std::string &Out, const Value &V) {
  switch (V.kind()) {
  case Value::Kind::Null:
    Out += "null";
    break;
  case Value::Kind::Bool:
    Out += V.asBool() ? "true" : "false";
    break;
  case Value::Kind::Number:
    if (V.isExactInteger())
      Out += std::to_string(V.asInt());
    else
      dumpNumber(Out, V.asNumber());
    break;
  case Value::Kind::String:
    Out += quote(V.asString());
    break;
  case Value::Kind::Array: {
    Out += '[';
    bool First = true;
    for (const Value &E : V.items()) {
      if (!First)
        Out += ',';
      First = false;
      dumpValue(Out, E);
    }
    Out += ']';
    break;
  }
  case Value::Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, E] : V.members()) {
      if (!First)
        Out += ',';
      First = false;
      Out += quote(Key);
      Out += ':';
      dumpValue(Out, E);
    }
    Out += '}';
    break;
  }
  }
}

/// Recursive-descent parser over a string_view cursor.
class Parser {
public:
  Parser(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool run(Value &Out) {
    skipSpace();
    if (!parseValue(Out, 0))
      return false;
    skipSpace();
    if (Pos != Text.size())
      return fail("trailing characters after JSON value");
    return true;
  }

private:
  static constexpr int MaxDepth = 64;

  bool fail(const std::string &Message) {
    Error = Message + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("invalid literal");
    Pos += Word.size();
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case 'n':
      Out = Value::null();
      return literal("null");
    case 't':
      Out = Value::boolean(true);
      return literal("true");
    case 'f':
      Out = Value::boolean(false);
      return literal("false");
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::str(std::move(S));
      return true;
    }
    case '[': {
      ++Pos;
      Out = Value::array();
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      while (true) {
        Value E;
        skipSpace();
        if (!parseValue(E, Depth + 1))
          return false;
        Out.push(std::move(E));
        skipSpace();
        if (Pos >= Text.size())
          return fail("unterminated array");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']' in array");
      }
    }
    case '{': {
      ++Pos;
      Out = Value::object();
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      while (true) {
        skipSpace();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipSpace();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':' in object");
        ++Pos;
        skipSpace();
        Value E;
        if (!parseValue(E, Depth + 1))
          return false;
        Out.set(std::move(Key), std::move(E));
        skipSpace();
        if (Pos >= Text.size())
          return fail("unterminated object");
        if (Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}' in object");
      }
    }
    default:
      return parseNumber(Out);
    }
  }

  bool parseString(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return fail("expected string");
    ++Pos;
    while (Pos < Text.size()) {
      // Copy the run up to the next quote or escape in one piece.
      size_t End = Pos;
      while (End < Text.size() && Text[End] != '"' && Text[End] != '\\')
        ++End;
      Out.append(Text, Pos, End - Pos);
      if (End == Text.size())
        break;
      Pos = End;
      if (Text[Pos] == '"') {
        ++Pos;
        return true;
      }
      ++Pos;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // The encoder only emits \u00XX for control bytes; decode any
        // BMP code point to UTF-8 for robustness against other writers.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected value");
    // An integer literal inside long long is exact; anything else (a
    // fraction, an exponent, an overflowing integer) is a double.
    long long Int = 0;
    const char *First = Text.data() + Start, *Last = Text.data() + Pos;
    if (auto [Ptr, Ec] = std::from_chars(First, Last, Int);
        Ec == std::errc() && Ptr == Last) {
      Out = Value::number(Int);
      return true;
    }
    std::string Num(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double D = std::strtod(Num.c_str(), &End);
    if (End != Num.c_str() + Num.size())
      return fail("malformed number");
    Out = Value::number(D);
    return true;
  }

  std::string_view Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

std::string Value::dump() const {
  std::string Out;
  dumpValue(Out, *this);
  return Out;
}

bool Value::parse(std::string_view Text, Value &Out, std::string &Error) {
  Parser P(Text, Error);
  return P.run(Out);
}
