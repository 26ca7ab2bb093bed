//===- LineCodec.cpp - One line codec for the artifact texts -------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "support/LineCodec.h"

#include <algorithm>

using namespace ipra;
using namespace ipra::codec;

bool LineReader::next() {
  while (Pos < Text.size()) {
    size_t End = std::min(Text.find('\n', Pos), Text.size());
    std::string_view Row = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++No;
    Row.remove_prefix(std::min(Row.find_first_not_of(" \t\r"), Row.size()));
    Row.remove_suffix(Row.size() - (Row.find_last_not_of(" \t\r") + 1));
    if (Row.empty())
      continue;
    Tok.clear();
    for (size_t From = 0, Space = 0; Space != std::string_view::npos;
         From = Space + 1) {
      Space = Row.find(' ', From);
      Tok.push_back(Row.substr(From, Space - From));
    }
    return true;
  }
  return false;
}

bool LineReader::fail(std::string &Error, const std::string &What) const {
  Error = "line " + std::to_string(No) + ": " + What;
  return false;
}

void codec::appendHex(std::string &Out, uint32_t Mask) {
  for (int Shift = 28; Shift >= 0; Shift -= 4)
    Out += "0123456789abcdef"[(Mask >> Shift) & 0xf];
}

detail::Reader::Reader(const LineReader &L, std::string &Error)
    : L(L), Error(Error) {
  while (PosEnd < L.Tok.size() &&
         L.Tok[PosEnd].find('=') == std::string_view::npos)
    ++PosEnd;
  if (L.Tok.size() - PosEnd > 64)
    Ok = L.fail(Error, "too many fields");
}

std::optional<std::string_view> detail::Reader::nextPos(const char *Name,
                                                        bool Required) {
  if (Ok && Next < PosEnd)
    return L.Tok[Next++];
  if (Ok && Required)
    Ok = L.fail(Error, std::string("missing ") + Name);
  return std::nullopt;
}

std::optional<std::string_view>
detail::Reader::value(const char *Key, Need N, bool Bare) {
  const std::string_view K(Key);
  auto Field = [&] { return std::string(K) + (Bare ? "" : "= field"); };
  std::optional<std::string_view> Found;
  for (size_t I = PosEnd; Ok && I < L.Tok.size(); ++I) {
    std::string_view T = L.Tok[I];
    if (Bare ? T != K
             : T.size() <= K.size() || T[K.size()] != '=' || !T.starts_with(K))
      continue;
    if (Found)
      Ok = L.fail(Error, "duplicate " + Field());
    Found = T.substr(std::min(T.size(), K.size() + 1));
    Claimed |= uint64_t(1) << (I - PosEnd);
  }
  if (Ok && (Found ? N == Need::No : N == Need::Yes))
    Ok = L.fail(Error, (Found ? "unexpected " : "missing ") + Field());
  return Ok ? Found : std::nullopt;
}

bool detail::Reader::malformed(const char *Name, std::string_view Tok,
                               bool Keyed) {
  return L.fail(Error, "malformed " + std::string(Name) +
                           (Keyed ? "=" + std::string(Tok)
                                  : " '" + std::string(Tok) + "'"));
}

bool detail::Reader::finish() {
  if (Ok && Next < PosEnd)
    Ok = L.fail(Error, "unexpected token '" + std::string(L.Tok[Next]) + "'");
  for (size_t I = PosEnd; Ok && I < L.Tok.size(); ++I)
    if (!(Claimed >> (I - PosEnd) & 1))
      Ok = L.fail(Error, "unknown field '" + std::string(L.Tok[I]) + "'");
  return Ok;
}

void codec::writeHeader(std::string &Out, std::string_view Tag, int Version,
                        const std::string &Fingerprint) {
  (Out += Tag) += ' ';
  appendInt(Out, Version);
  (Out += " config=") += Fingerprint.empty() ? "-" : Fingerprint;
  Out += '\n';
}

bool codec::readHeader(LineReader &L, std::string_view Tag, int Version,
                       std::string_view Noun, std::string &Fingerprint,
                       std::string &Error) {
  const std::string Regenerate =
      "; regenerate the " + std::string(Noun) + " with this toolchain";
  if (!L.next() || L.Tok[0] != Tag) {
    Error = "missing '" + std::string(Tag) + "' header line" + Regenerate;
    return false;
  }
  int Found = 0;
  if (L.Tok.size() < 2 || !parseInt(L.Tok[1], Found) || Found != Version) {
    Error = std::string(Noun) + " format version " +
            std::string(L.Tok.size() < 2 ? "" : L.Tok[1]) +
            " is not supported (this reader handles version " +
            std::to_string(Version) + ")" + Regenerate;
    return false;
  }
  auto Fields = [&Found](std::string &FP, auto &V) {
    V.pos("version", Found);
    V.key("config", FP);
  };
  const bool Ok = read(L, Fingerprint, Error, Fields);
  if (Fingerprint == "-")
    Fingerprint.clear();
  return Ok;
}

bool codec::readRecords(LineReader &L, std::span<const Kind> Kinds,
                        const std::function<bool(int)> &Handle,
                        std::string &Error) {
  std::vector<int> Open; // The open records' kinds, outermost first.
  int BlockLine = 0;
  std::string_view BlockName;
  auto Unclosed = [&] {
    Error = "line " + std::to_string(BlockLine) + ": " +
            std::string(Kinds[Open[0]].Name) + " record '" +
            std::string(BlockName) + "' has no end";
    return false;
  };
  while (L.next()) {
    const bool BlockOpen = !Open.empty() && Kinds[Open[0]].Block;
    if (L.Tok[0] == "end") {
      if (!BlockOpen)
        return L.fail(Error, "stray end");
      if (L.Tok.size() > 1)
        return L.fail(Error, "unexpected token '" + std::string(L.Tok[1]) +
                                 "'");
      Open.clear();
      continue;
    }
    auto K = std::find_if(Kinds.begin(), Kinds.end(),
                          [&](const Kind &K) { return K.Name == L.Tok[0]; });
    if (K == Kinds.end())
      return L.fail(Error, "unknown record '" + std::string(L.Tok[0]) + "'");
    if (K->Parent < 0 && BlockOpen)
      return Unclosed();
    auto Parent = std::find(Open.rbegin(), Open.rend(), K->Parent);
    if (K->Parent >= 0 && Parent == Open.rend())
      return L.fail(Error, "'" + std::string(K->Name) + "' outside " +
                               std::string(Kinds[K->Parent].Name));
    Open.erase(Parent.base(), Open.end());
    Open.push_back(static_cast<int>(K - Kinds.begin()));
    if (K->Block) {
      BlockLine = L.No;
      BlockName = L.Tok.size() > 1 ? L.Tok[1] : std::string_view();
    }
    if (!Handle(Open.back()))
      return false;
  }
  return Open.empty() || !Kinds[Open[0]].Block || Unclosed();
}
