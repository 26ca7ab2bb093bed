//===- Json.h - Minimal JSON values for the service protocol ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON value type for the build-service wire
/// protocol (length-prefixed JSON frames), the stats reports and the
/// persisted analyzer state. It is deliberately minimal: objects
/// preserve insertion order (so encoded requests are deterministic and
/// diffable), integers are exact over all of long long (an integer
/// literal parses to an exact integer; other numbers are doubles), and
/// strings are byte strings — bytes >= 0x80 pass through verbatim,
/// control characters are escaped as \u00XX. That is exactly enough to
/// carry MiniC source text, artifacts, diagnostics, and 64-bit counts
/// (profile counts, counters, web priorities) between processes.
///
/// encode()/decode() map a record to and from a JSON object through the
/// record's one field list (support/Record.h). Every record that crosses
/// a process boundary is driven by its list: the statistics and options
/// records, the service's requests and replies, the call profile, and
/// the delta analyzer's retained run with its webs.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_JSON_H
#define IPRA_SUPPORT_JSON_H

#include "support/NodeSet.h"
#include "support/Record.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ipra::json {

/// One JSON value (null / bool / number / string / array / object).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  static Value null() { return Value(); }
  static Value boolean(bool B) {
    Value V;
    V.K = Kind::Bool;
    V.B = B;
    return V;
  }
  static Value number(double N) {
    Value V;
    V.K = Kind::Number;
    V.Num = N;
    return V;
  }
  /// An integer inside long long is exact: it dumps as its digits at
  /// any magnitude.
  template <typename N>
    requires std::is_integral_v<N>
  static Value number(N X) {
    Value V = number(static_cast<double>(X));
    V.Exact = std::in_range<long long>(X);
    V.Int = V.Exact ? static_cast<long long>(X) : 0;
    return V;
  }
  static Value str(std::string S) {
    Value V;
    V.K = Kind::String;
    V.Str = std::move(S);
    return V;
  }
  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isObject() const { return K == Kind::Object; }
  bool isArray() const { return K == Kind::Array; }
  bool isString() const { return K == Kind::String; }
  bool isNumber() const { return K == Kind::Number; }
  bool isBool() const { return K == Kind::Bool; }

  /// Appends \p V to an array value.
  Value &push(Value V) {
    Arr.push_back(std::move(V));
    return *this;
  }
  /// Appends key/value to an object value (no de-duplication; encoders
  /// emit each key once).
  Value &set(std::string Key, Value V) {
    Obj.emplace_back(std::move(Key), std::move(V));
    return *this;
  }

  /// Object lookup; null when absent or not an object.
  const Value *find(std::string_view Key) const;

  // Typed accessors with defaults (lenient: wrong kind yields the
  // default, so decoders can treat absent and mistyped alike).
  bool asBool(bool Default = false) const {
    return K == Kind::Bool ? B : Default;
  }
  double asNumber(double Default = 0) const {
    return K == Kind::Number ? Num : Default;
  }
  /// The integer reading: an exact integer, or a whole double inside
  /// long long. False for any other value (a fraction, a non-finite
  /// number, a number outside long long, another kind).
  bool integer(long long &Out) const {
    if (K != Kind::Number ||
        (!Exact && !(Num >= -0x1p63 && Num < 0x1p63 && Num == std::floor(Num))))
      return false;
    Out = Exact ? Int : static_cast<long long>(Num);
    return true;
  }
  /// The integer reading, or \p Default when there is none (like a
  /// mistyped value).
  long long asInt(long long Default = 0) const {
    long long N = Default;
    integer(N);
    return N;
  }
  /// True for a number built from, or parsed as, an exact integer.
  bool isExactInteger() const { return K == Kind::Number && Exact; }
  const std::string &asString() const { return Str; }

  const std::vector<Value> &items() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Obj;
  }

  /// Compact (single-line) serialization.
  std::string dump() const;

  /// Parses \p Text into \p Out. Returns false with \p Error set on
  /// malformed input (including trailing garbage).
  static bool parse(std::string_view Text, Value &Out, std::string &Error);

  /// Same kind and same contents (object keys compared in order).
  bool operator==(const Value &O) const = default;

private:
  Kind K = Kind::Null;
  bool B = false;
  bool Exact = false; ///< Int holds the number exactly.
  double Num = 0;
  long long Int = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Escapes \p S as a JSON string literal (with quotes).
std::string quote(std::string_view S);

//===----------------------------------------------------------------------===//
// Record codec.
//===----------------------------------------------------------------------===//

/// A record (support/Record.h) is encoded in the order of its list.
using record::Record;

template <typename T> struct IsVector : std::false_type {};
template <typename T, typename A>
struct IsVector<std::vector<T, A>> : std::true_type {};
template <typename T> struct IsOptional : std::false_type {};
template <typename T> struct IsOptional<std::optional<T>> : std::true_type {};
template <typename T> struct IsMap : std::false_type {};
template <typename K, typename T, typename C, typename A>
struct IsMap<std::map<K, T, C, A>> : std::true_type {};
template <typename T> struct IsStringMap : std::false_type {};
template <typename T, typename C, typename A>
struct IsStringMap<std::map<std::string, T, C, A>> : std::true_type {};
template <typename T> struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

/// Encodes a field value: numbers (integers exactly), bools, strings,
/// enums (by the name `enumName(E)` returns, found by argument-dependent
/// lookup), NodeSets (arrays of ascending ids), vectors (arrays),
/// optionals (the value; a record omits an empty one), maps and records.
/// A map with string keys is an object; any other map is an array of
/// rows [key, value], a pair key spread over two cells ([caller,
/// callee, count]). A record is an object with one key per listed field.
template <typename T> Value encode(const T &X) {
  if constexpr (std::is_same_v<T, bool>) {
    return Value::boolean(X);
  } else if constexpr (std::is_enum_v<T>) {
    return Value::str(enumName(X));
  } else if constexpr (std::is_arithmetic_v<T>) {
    return Value::number(X);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Value::str(X);
  } else if constexpr (std::is_same_v<T, NodeSet>) {
    return encode(std::vector<int>(X.begin(), X.end()));
  } else if constexpr (IsVector<T>::value) {
    Value V = Value::array();
    for (const auto &E : X)
      V.push(encode(E));
    return V;
  } else if constexpr (IsOptional<T>::value) {
    return X ? encode(*X) : Value::null();
  } else if constexpr (IsStringMap<T>::value) {
    Value V = Value::object();
    for (const auto &[Key, E] : X)
      V.set(Key, encode(E));
    return V;
  } else if constexpr (IsMap<T>::value) {
    Value V = Value::array();
    for (const auto &[Key, E] : X) {
      Value Row = Value::array();
      if constexpr (IsPair<typename T::key_type>::value)
        Row.push(encode(Key.first)).push(encode(Key.second));
      else
        Row.push(encode(Key));
      V.push(std::move(Row.push(encode(E))));
    }
    return V;
  } else {
    static_assert(Record<T>, "encode: not a number, string or record");
    Value V = Value::object();
    T::fields(X, [&V](const char *Key, const auto &F) {
      if constexpr (IsOptional<std::remove_cvref_t<decltype(F)>>::value)
        if (!F)
          return;
      V.set(Key, encode(F));
    });
    return V;
  }
}

namespace detail {

/// Prefixes \p Path, the failing value's path below a container, with
/// the container's key or index \p Head.
inline void nestPath(std::string &Path, const std::string &Head) {
  Path = Path.empty()      ? Head
         : Path[0] == '[' ? Head + Path
                          : Head + "." + Path;
}

/// What a record's object must hold: every listed key (but an absent
/// optional), and no key the list does not name. On failure, Path names
/// the failing value below the decoded one, and Unknown says it is a key
/// the list does not name.
struct Reader {
  bool AllFields = false;
  bool OnlyListed = false;
  std::string &Path;
  bool Unknown = false;
};

template <typename T> bool decodeField(const Value &V, T &X, Reader &R) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!V.isBool())
      return false;
    X = V.asBool();
  } else if constexpr (std::is_enum_v<T>) {
    return V.isString() && enumFromName(V.asString(), X);
  } else if constexpr (std::is_integral_v<T>) {
    // Only a whole number inside T's range reads as an integer.
    long long N = 0;
    if (!V.integer(N) || !std::in_range<T>(N))
      return false;
    X = static_cast<T>(N);
  } else if constexpr (std::is_floating_point_v<T>) {
    // encode() writes no Inf/NaN, so an overflowing literal is foreign.
    if (!V.isNumber() || !std::isfinite(V.asNumber()))
      return false;
    X = static_cast<T>(V.asNumber());
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!V.isString())
      return false;
    X = V.asString();
  } else if constexpr (std::is_same_v<T, NodeSet>) {
    // Strictly ascending ids >= 0, the form encode() writes.
    std::vector<int> Ids;
    if (!decodeField(V, Ids, R) ||
        (!Ids.empty() && Ids.front() < 0) ||
        std::adjacent_find(Ids.begin(), Ids.end(),
                           std::greater_equal<>()) != Ids.end())
      return false;
    X = NodeSet::withUniverse(
        Ids.empty() ? 0 : static_cast<size_t>(Ids.back()) + 1);
    for (int N : Ids)
      X.insert(N);
  } else if constexpr (IsVector<T>::value) {
    if (!V.isArray())
      return false;
    X.clear();
    X.reserve(V.items().size());
    for (size_t I = 0; I < V.items().size(); ++I)
      if (!decodeField(V.items()[I], X.emplace_back(), R)) {
        nestPath(R.Path, "[" + std::to_string(I) + "]");
        return false;
      }
  } else if constexpr (IsOptional<T>::value) {
    return decodeField(V, X.emplace(), R);
  } else if constexpr (IsStringMap<T>::value) {
    if (!V.isObject())
      return false;
    X.clear();
    for (const auto &[Key, E] : V.members()) {
      auto [It, Fresh] = X.try_emplace(Key);
      if (!Fresh || !decodeField(E, It->second, R)) {
        nestPath(R.Path, Key);
        return false;
      }
    }
  } else if constexpr (IsMap<T>::value) {
    using Key = typename T::key_type;
    constexpr size_t Arity = IsPair<Key>::value ? 3 : 2;
    if (!V.isArray())
      return false;
    X.clear();
    for (size_t I = 0; I < V.items().size(); ++I) {
      const std::vector<Value> &Row = V.items()[I].items();
      Key K{};
      bool Ok = V.items()[I].isArray() && Row.size() == Arity;
      if constexpr (IsPair<Key>::value)
        Ok = Ok && decodeField(Row[0], K.first, R) &&
             decodeField(Row[1], K.second, R);
      else
        Ok = Ok && decodeField(Row[0], K, R);
      if (Ok) {
        auto [It, Fresh] = X.try_emplace(std::move(K));
        Ok = Fresh && decodeField(Row.back(), It->second, R);
      }
      if (!Ok) {
        R.Path = "[" + std::to_string(I) + "]";
        return false;
      }
    }
  } else {
    static_assert(Record<T>, "decode: not a number, string or record");
    if (!V.isObject())
      return false;
    bool Ok = true;
    std::vector<std::string_view> Listed;
    T::fields(X, [&](const char *Key, auto &F) {
      if (R.OnlyListed)
        Listed.push_back(Key);
      const Value *M = Ok ? V.find(Key) : nullptr;
      if (!M) {
        if (Ok && R.AllFields &&
            !IsOptional<std::remove_cvref_t<decltype(F)>>::value) {
          Ok = false;
          R.Path = Key;
        }
        return;
      }
      if (!decodeField(*M, F, R)) {
        Ok = false;
        nestPath(R.Path, Key);
      }
    });
    if (Ok && R.OnlyListed)
      for (const auto &[Key, E] : V.members())
        if (std::find(Listed.begin(), Listed.end(), Key) == Listed.end()) {
          R.Path = Key;
          R.Unknown = true;
          return false;
        }
    return Ok;
  }
  return true;
}

} // namespace detail

/// Decodes \p V into \p X, the inverse of encode() (enums parse through
/// `enumFromName(Name, E)`, found by argument-dependent lookup). Every
/// listed field must be present with the right kind — for an integer, a
/// whole number in range — except an absent optional. This is the
/// strict reading a cache entry and a retained analyzer run need. On
/// failure \p Path, when given, names the first bad field (nested
/// fields as dotted paths, elements by index: "webs[3].nodes").
template <typename T>
bool decode(const Value &V, T &X, std::string *Path = nullptr) {
  std::string Local;
  detail::Reader R{true, false, Path ? *Path : Local};
  return detail::decodeField(V, X, R);
}

/// The lenient-on-absence, strict-on-kind reading of the wire: decodes
/// the listed keys \p V carries and leaves absent ones as they were. A
/// present value of the wrong kind (or an unknown enum name, a duplicate
/// map key, a map row of the wrong arity) fails, and \p Path then names
/// it ("profile.calls.main", "modules[0].text"); it stays empty
/// when \p V itself is of the wrong kind. Keys the list does not name
/// are ignored, so a reply may carry keys a newer writer added.
template <Record T>
bool decodePresent(const Value &V, T &X, std::string &Path) {
  Path.clear();
  detail::Reader R{false, false, Path};
  return detail::decodeField(V, X, R);
}

/// decodePresent()'s reading of a request, except that a record key its
/// list does not name fails too, with \p Unknown set and \p Path naming
/// it ("config.webs"). The keys of a string-keyed map are data.
template <Record T>
bool decodeListed(const Value &V, T &X, std::string &Path, bool &Unknown) {
  Path.clear();
  detail::Reader R{false, true, Path};
  const bool Ok = detail::decodeField(V, X, R);
  Unknown = R.Unknown;
  return Ok;
}

/// Reads the record \p Header from the first line of \p Text (the header
/// of a persisted file) and points \p Body at the rest. False when there
/// is no line break or the line does not decode as \p Header.
template <Record T>
bool readHeaderLine(std::string_view Text, T &Header, std::string_view &Body) {
  const size_t NL = Text.find('\n');
  Value V;
  std::string Error;
  if (NL == std::string_view::npos ||
      !Value::parse(Text.substr(0, NL), V, Error) || !decode(V, Header))
    return false;
  Body = Text.substr(NL + 1);
  return true;
}

} // namespace ipra::json

#endif // IPRA_SUPPORT_JSON_H
