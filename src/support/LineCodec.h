//===- LineCodec.h - One line codec for the artifact texts -----*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary file (§3), the program database (§4.3) and the object file
/// are texts of records, one per line:
///
///   <kind> <positional>... <key>=<value>... <flag>...
///
/// A record type lists its fields once, in a static member template
/// `fields(auto &S, auto &V)` (S is the record or its const form), and
/// the writer and the reader below are both driven by that list:
///
///   V.pos(Name, M)          required positional token
///   V.optPos(Name, M)       positional token, omitted when it is empty
///   V.rest(Name, Vector)    every remaining positional token (appends)
///   V.key(Key, M[, Max])    required Key=value [in 0..Max]
///   V.hex(Key, Mask)        required Key=<8 hex digits>
///   V.opt(Key, M)           Key=value, omitted when M holds its default
///   V.when(Cond, Key, M)    Key=value, present exactly when Cond
///   V.flag(Cond, Word, B)   bare Word, present exactly when Cond and B
///
/// A token is a bool (0/1), an integer or enum (decimal), a string, or a
/// type with the argument-dependent hooks appendToken(std::string &, const
/// T &) and parseToken(std::string_view, T &). The writer appends to one
/// string. The reader is strict: every value must parse in full and in
/// range, and an unknown, duplicate, missing or forbidden field is an
/// error naming the line and the field; readRecords() checks each record
/// against its format's kind→parent table too.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SUPPORT_LINECODEC_H
#define IPRA_SUPPORT_LINECODEC_H

#include "support/StringUtils.h"

#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ipra::codec {

/// Walks a text's non-blank lines, each trimmed and split on single
/// spaces; Tok[0] is the record kind.
class LineReader {
public:
  explicit LineReader(std::string_view Text) : Text(Text) {}
  /// Advances to the next non-blank line; false at the end.
  bool next();
  /// Sets \p Error to "line <No>: <What>" and returns false.
  bool fail(std::string &Error, const std::string &What) const;

  int No = 0;
  std::vector<std::string_view> Tok;

private:
  std::string_view Text;
  size_t Pos = 0;
};

/// Appends \p X in decimal.
template <typename T> void appendInt(std::string &Out, T X) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), X).ptr);
}

/// Appends \p Mask as exactly eight lowercase hex digits.
void appendHex(std::string &Out, uint32_t Mask);

namespace detail {

template <typename T> void put(std::string &Out, const T &X) {
  if constexpr (std::is_same_v<T, bool>)
    Out += X ? '1' : '0';
  else if constexpr (std::is_integral_v<T>)
    appendInt(Out, X);
  else if constexpr (std::is_enum_v<T>)
    appendInt(Out, static_cast<std::underlying_type_t<T>>(X));
  else if constexpr (std::is_same_v<T, std::string>)
    Out += X;
  else
    appendToken(Out, X);
}

template <typename T> bool get(std::string_view Tok, T &X) {
  if constexpr (std::is_same_v<T, bool>) {
    X = Tok == "1";
    return Tok == "0" || Tok == "1";
  } else if constexpr (std::is_integral_v<T>) {
    return parseInt(Tok, X);
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> N{};
    const bool Parsed = parseInt(Tok, N);
    X = static_cast<T>(N);
    return Parsed;
  } else if constexpr (std::is_same_v<T, std::string>) {
    X = Tok;
    return !Tok.empty();
  } else {
    return parseToken(Tok, X);
  }
}

/// The writing visitor: appends each listed field in order.
struct Writer {
  std::string &Out;

  template <typename T> void pos(const char *, const T &X) {
    Out += ' ';
    put(Out, X);
  }
  template <typename T> void optPos(const char *, const T &X) {
    Out += ' ';
    put(Out, X);
    if (Out.back() == ' ') // An empty token is left out.
      Out.pop_back();
  }
  template <typename V> void rest(const char *Name, const V &Xs) {
    for (const auto &X : Xs)
      pos(Name, X);
  }
  template <typename T, typename... Max>
  void key(const char *Key, const T &X, Max...) {
    ((Out += ' ') += Key) += '=';
    put(Out, X);
  }
  void hex(const char *Key, uint32_t Mask) {
    ((Out += ' ') += Key) += '=';
    appendHex(Out, Mask);
  }
  template <typename T> void opt(const char *Key, const T &X) {
    if (X != T{})
      key(Key, X);
  }
  template <typename T> void when(bool Cond, const char *Key, const T &X) {
    if (Cond)
      key(Key, X);
  }
  void flag(bool Cond, const char *Word, bool X) {
    if (Cond && X)
      (Out += ' ') += Word;
  }
};

/// The reading visitor. The positional tokens are the leading run of
/// tokens without '='; every later token is a key=value or a flag, and
/// exactly one field must claim it.
class Reader {
public:
  Reader(const LineReader &L, std::string &Error);

  template <typename T> void pos(const char *Name, T &X) {
    take(Name, nextPos(Name, true), X, false);
  }
  template <typename T> void optPos(const char *Name, T &X) {
    take(Name, nextPos(Name, false), X, false);
  }
  template <typename V> void rest(const char *Name, V &Xs) {
    while (Ok && Next < PosEnd)
      take(Name, nextPos(Name, true), Xs.emplace_back(), false);
  }
  template <typename T, typename... Max>
  void key(const char *Key, T &X, Max... Bound) {
    take(Key, value(Key, Need::Yes), X, true, Bound...);
  }
  void hex(const char *Key, uint32_t &Mask) {
    std::optional<std::string_view> V = value(Key, Need::Yes);
    if (V && (V->size() != 8 || !parseInt(*V, Mask, 16)))
      Ok = malformed(Key, *V, true);
  }
  template <typename T> void opt(const char *Key, T &X) {
    take(Key, value(Key, Need::Maybe), X, true);
  }
  template <typename T> void when(bool Cond, const char *Key, T &X) {
    take(Key, value(Key, Cond ? Need::Yes : Need::No), X, true);
  }
  void flag(bool Cond, const char *Word, bool &X) {
    X = value(Word, Cond ? Need::Maybe : Need::No, true).has_value();
  }

  /// After the field list: true when every token was claimed.
  bool finish();

private:
  enum class Need { Yes, Maybe, No };
  const LineReader &L;
  std::string &Error;
  bool Ok = true;
  size_t Next = 1;      ///< Next positional token.
  size_t PosEnd = 1;    ///< One past the last positional token.
  uint64_t Claimed = 0; ///< Claimed key/flag tokens, bit I for PosEnd + I.

  /// The next positional token, if any (an error if \p Required).
  std::optional<std::string_view> nextPos(const char *Name, bool Required);
  /// The value of the one "Key=..." token (the bare word Key when
  /// \p Bare), claimed; none when absent (an error under Need::Yes).
  std::optional<std::string_view> value(const char *Key, Need N,
                                        bool Bare = false);
  bool malformed(const char *Name, std::string_view Tok, bool Keyed);
  /// Parses \p Tok into \p X, which must lie in 0..Bound if one is given.
  template <typename T, typename... Max>
  void take(const char *Name, std::optional<std::string_view> Tok, T &X,
            bool Keyed, Max... Bound) {
    if (Tok && (!get(*Tok, X) || ((X < T{} || X > T(Bound)) || ...)))
      Ok = malformed(Name, *Tok, Keyed);
  }
};

} // namespace detail

/// A record type's own field list; a type without one (a plain name) is
/// one positional token.
inline constexpr auto OwnFields = [](auto &S, auto &V) {
  if constexpr (requires { std::remove_cvref_t<decltype(S)>::fields(S, V); })
    std::remove_cvref_t<decltype(S)>::fields(S, V);
  else
    V.pos("name", S);
};

/// Appends the line "<Kind> <fields>" for \p Rec, driven by \p Fields.
template <typename R, typename List = decltype(OwnFields)>
void write(std::string &Out, std::string_view Kind, const R &Rec,
           List Fields = OwnFields) {
  Out += Kind;
  detail::Writer W{Out};
  Fields(Rec, W);
  Out += '\n';
}

/// Reads the current line of \p L into \p Rec, driven by \p Fields; on
/// failure \p Error names the line and the field.
template <typename R, typename List = decltype(OwnFields)>
bool read(const LineReader &L, R &Rec, std::string &Error,
          List Fields = OwnFields) {
  detail::Reader Rd(L, Error);
  Fields(Rec, Rd);
  return Rd.finish();
}

/// The field list of a record stored under a name outside itself (a map
/// key): the name, then the record's own fields.
template <typename Name> auto named(Name &N) {
  return [&N](auto &Rec, auto &V) {
    V.pos("name", N);
    OwnFields(Rec, V);
  };
}

/// The header line of a versioned artifact,
/// "<Tag> <Version> config=<Fingerprint|->". The reader requires it first
/// and at exactly \p Version; otherwise the error tells the user to
/// regenerate the \p Noun ("summary", "database").
void writeHeader(std::string &Out, std::string_view Tag, int Version,
                 const std::string &Fingerprint);
bool readHeader(LineReader &L, std::string_view Tag, int Version,
                std::string_view Noun, std::string &Fingerprint,
                std::string &Error);

/// One record kind of a format, with the index of the kind it belongs to
/// in the same table (-1 at top level). A Block record is closed by an
/// `end` line, which must come before the next top-level record.
struct Kind {
  std::string_view Name;
  int Parent = -1;
  bool Block = false;
};

/// Reads the remaining lines of \p L as records of the format \p Kinds,
/// checking each record's kind and parent, and calls \p Handle with the
/// kind's index for each record but `end`. \p Handle sets \p Error when
/// it returns false.
bool readRecords(LineReader &L, std::span<const Kind> Kinds,
                 const std::function<bool(int)> &Handle, std::string &Error);

} // namespace ipra::codec

#endif // IPRA_SUPPORT_LINECODEC_H
