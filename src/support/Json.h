//===- Json.h - Minimal JSON values for the service protocol ---*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, dependency-free JSON value type for the build-service wire
/// protocol (length-prefixed JSON frames) and the stats reports. It is
/// deliberately minimal: objects preserve insertion order (so encoded
/// requests are deterministic and diffable), numbers are doubles
/// (integers up to 2^53 round-trip exactly, far beyond any counter this
/// project emits), and strings are byte strings — bytes >= 0x80 pass
/// through verbatim, control characters are escaped as \uOOXX. That is
/// exactly enough to carry MiniC source text, artifacts, diagnostics,
/// and counters between the mcc client and the build daemon.
///
/// encode()/decode() map a record — a statistics or an options record —
/// to and from a JSON object through the record's one field list (see
/// Record below), so every encoding of a record — the service wire, the
/// analyzer cache entry, the retained analyzer run — is driven by the
/// same list of (key, member) rows.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_JSON_H
#define IPRA_SUPPORT_JSON_H

#include <cmath>
#include <cstdint>
#include <limits>
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
  static Value number(long long N) {
    return number(static_cast<double>(N));
  }
  static Value number(unsigned long long N) {
    return number(static_cast<double>(N));
  }
  static Value number(int N) { return number(static_cast<double>(N)); }
  static Value number(unsigned N) { return number(static_cast<double>(N)); }
  static Value number(size_t N) { return number(static_cast<double>(N)); }
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
  /// Non-finite numbers and numbers outside long long have no integer
  /// reading and yield the default, like a mistyped value.
  long long asInt(long long Default = 0) const {
    if (K != Kind::Number || !(Num >= -0x1p63 && Num < 0x1p63))
      return Default;
    return static_cast<long long>(Num);
  }
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
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Obj;
};

/// Escapes \p S as a JSON string literal (with quotes).
std::string quote(std::string_view S);

//===----------------------------------------------------------------------===//
// Record codec.
//===----------------------------------------------------------------------===//

/// A record lists its fields once, in a static member template
/// `fields(Self &S, Visit &&V)` that calls `V(Key, S.Member)` for every
/// member, in wire order. Self is the record or its const form, so the
/// same list serves encoding and decoding.
template <typename R>
concept Record = requires(R &Rec) {
  R::fields(Rec, [](const char *, auto &) {});
};

template <typename T> struct IsVector : std::false_type {};
template <typename T, typename A>
struct IsVector<std::vector<T, A>> : std::true_type {};

/// Encodes a field value: numbers, bools, strings, enums (by the name
/// `enumName(E)` returns, found by argument-dependent lookup), vectors
/// (arrays) and records (objects, one key per listed field).
template <typename T> Value encode(const T &X) {
  if constexpr (std::is_same_v<T, bool>) {
    return Value::boolean(X);
  } else if constexpr (std::is_enum_v<T>) {
    return Value::str(enumName(X));
  } else if constexpr (std::is_arithmetic_v<T>) {
    return Value::number(static_cast<double>(X));
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Value::str(X);
  } else if constexpr (IsVector<T>::value) {
    Value V = Value::array();
    for (const auto &E : X)
      V.push(encode(E));
    return V;
  } else {
    static_assert(Record<T>, "encode: not a number, string or record");
    Value V = Value::object();
    T::fields(X, [&V](const char *Key, const auto &F) {
      V.set(Key, encode(F));
    });
    return V;
  }
}

/// Decodes \p V into \p X (the inverse of encode(); enums parse through
/// `enumFromName(Name, E)`, found by argument-dependent lookup). A value
/// of the wrong kind (for an integer, also a fraction or a number out of
/// range) leaves its field as it was, and so does a key the object
/// lacks. Returns true only when every field was present with the right
/// kind — the strict reading a cache entry and a retained analyzer run
/// need; stats readers on the wire ignore it and keep the defaults.
template <typename T> bool decode(const Value &V, T &X) {
  if constexpr (std::is_same_v<T, bool>) {
    if (!V.isBool())
      return false;
    X = V.asBool();
  } else if constexpr (std::is_enum_v<T>) {
    return V.isString() && enumFromName(V.asString(), X);
  } else if constexpr (std::is_integral_v<T>) {
    if (!V.isNumber())
      return false;
    // Only a whole number inside T's range reads as an integer.
    const double N = V.asNumber();
    const double Limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (N != std::floor(N) || N >= Limit ||
        N < (std::is_signed_v<T> ? -Limit : 0.0))
      return false;
    X = static_cast<T>(N);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (!V.isNumber())
      return false;
    X = static_cast<T>(V.asNumber());
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!V.isString())
      return false;
    X = V.asString();
  } else if constexpr (IsVector<T>::value) {
    if (!V.isArray())
      return false;
    X.clear();
    bool Complete = true;
    for (const Value &Item : V.items())
      Complete &= decode(Item, X.emplace_back());
    return Complete;
  } else {
    static_assert(Record<T>, "decode: not a number, string or record");
    if (!V.isObject())
      return false;
    bool Complete = true;
    T::fields(X, [&](const char *Key, auto &F) {
      const Value *M = V.find(Key);
      Complete &= M && decode(*M, F);
    });
    return Complete;
  }
  return true;
}

/// The lenient-on-absence, strict-on-kind reading of a record: decodes
/// the listed keys \p V carries and leaves absent ones as they were. A
/// present value of the wrong kind (or an unknown enum name) fails;
/// \p Path, the record's own key path on entry, then names the field
/// (nested records as dotted paths, "webs.min-lref-ratio"). Keys the
/// list does not name are ignored.
template <Record T>
bool decodePresent(const Value &V, T &X, std::string &Path) {
  if (!V.isObject())
    return false;
  bool Ok = true;
  T::fields(X, [&](const char *Key, auto &F) {
    const Value *M = Ok ? V.find(Key) : nullptr;
    if (!M)
      return;
    std::string Sub = Path.empty() ? Key : Path + "." + Key;
    if constexpr (Record<std::remove_cvref_t<decltype(F)>>)
      Ok = decodePresent(*M, F, Sub);
    else
      Ok = decode(*M, F);
    if (!Ok)
      Path = std::move(Sub);
  });
  return Ok;
}

} // namespace ipra::json

#endif // IPRA_SUPPORT_JSON_H
