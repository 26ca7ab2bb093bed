//===- Protocol.cpp - Build-service wire protocol -------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdint>
#include <sys/socket.h>
#include <unistd.h>

using namespace ipra;
using json::Value;

//===----------------------------------------------------------------------===//
// Framing.
//===----------------------------------------------------------------------===//

namespace {

bool writeAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    // Live protocol fds are stream sockets; MSG_NOSIGNAL turns a write
    // to a vanished peer into EPIPE instead of a process-killing
    // SIGPIPE (neither the daemon nor a client installs a handler).
    // Tests also frame over plain pipes, where send() is ENOTSOCK —
    // fall back to write() for those.
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

bool ipra::writeFrame(int Fd, const std::string &Payload) {
  if (Payload.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  char Header[4] = {static_cast<char>((Len >> 24) & 0xff),
                    static_cast<char>((Len >> 16) & 0xff),
                    static_cast<char>((Len >> 8) & 0xff),
                    static_cast<char>(Len & 0xff)};
  return writeAll(Fd, Header, 4) &&
         writeAll(Fd, Payload.data(), Payload.size());
}

namespace {

/// Like readAll but reports how it ended. \p SawBytes tracks whether
/// any byte of the current region arrived (EOF before the first header
/// byte is a clean close; EOF anywhere else is a truncated frame).
FrameRead readRegion(int Fd, char *Data, size_t Len, bool &SawBytes) {
  while (Len > 0) {
    ssize_t N = ::read(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return FrameRead::Timeout; // SO_RCVTIMEO deadline fired.
      return FrameRead::Error;
    }
    if (N == 0)
      return SawBytes ? FrameRead::Truncated : FrameRead::Eof;
    SawBytes = true;
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return FrameRead::Ok;
}

} // namespace

FrameRead ipra::readFrameEx(int Fd, std::string &Payload, size_t MaxBytes) {
  char Header[4];
  bool SawBytes = false;
  FrameRead R = readRegion(Fd, Header, 4, SawBytes);
  if (R != FrameRead::Ok)
    return R;
  uint32_t Len = (static_cast<uint32_t>(static_cast<unsigned char>(Header[0]))
                  << 24) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Header[1]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<unsigned char>(Header[2]))
                  << 8) |
                 static_cast<uint32_t>(static_cast<unsigned char>(Header[3]));
  // Cap check BEFORE the resize: an adversarial length prefix must not
  // turn into an allocation attempt.
  if (Len > MaxBytes)
    return FrameRead::Oversize;
  Payload.resize(Len);
  if (Len == 0)
    return FrameRead::Ok;
  R = readRegion(Fd, Payload.data(), Len, SawBytes);
  return R == FrameRead::Eof ? FrameRead::Truncated : R;
}

bool ipra::readFrame(int Fd, std::string &Payload) {
  return readFrameEx(Fd, Payload) == FrameRead::Ok;
}

//===----------------------------------------------------------------------===//
// Request and reply codecs: the records' field lists (support/Json.h).
//===----------------------------------------------------------------------===//

namespace {

/// WireKind's envelope names, in enumerator order.
constexpr const char *WireKindNames[] = {"build", "stats", "ping",
                                         "shutdown"};

/// The status every reply carries.
struct WireStatus {
  bool Ok = false;
  std::string Code;
  std::string Error;

  template <typename Self, typename Visit>
  static void fields(Self &S, Visit &&V) {
    V("ok", S.Ok);
    V("code", S.Code);
    V("error", S.Error);
  }
};

Value statusToJson(const Status &S) {
  return json::encode(
      WireStatus{S.Ok, S.Code, S.Ok ? std::string() : S.text()});
}

Status statusFromJson(const Value &V) {
  WireStatus W;
  std::string Path;
  if (!json::decodePresent(V, W, Path))
    return Status::error(Path.empty() ? "bad reply frame: not an object"
                                      : "bad reply frame: status field '" +
                                            Path + "' has an invalid value",
                         "transport");
  if (W.Ok)
    return Status::success();
  return Status::error(W.Error.empty() ? "request failed" : W.Error, W.Code);
}

} // namespace

bool ipra::requestFromJson(const Value &V, BuildRequest &Req,
                           std::string &Error) {
  Req = BuildRequest();
  std::string Path;
  bool Unknown = false;
  if (json::decodeListed(V, Req, Path, Unknown))
    return true;
  Error = Path.empty() ? "request is not an object"
          : Unknown    ? "request field '" + Path + "' is not a known field"
                       : "request field '" + Path + "' has an invalid value";
  return false;
}

std::string ipra::encodeBuildRequest(const BuildRequest &Req) {
  Value V = Value::object();
  V.set("kind", Value::str("build")).set("request", json::encode(Req));
  return V.dump();
}

std::string ipra::encodeControlRequest(WireKind Kind) {
  Value V = Value::object();
  V.set("kind", Value::str(WireKindNames[static_cast<int>(Kind)]));
  return V.dump();
}

bool ipra::decodeRequestEnvelope(const std::string &Payload, WireKind &Kind,
                                 BuildRequest &Req, std::string &Error) {
  Value V;
  if (!Value::parse(Payload, V, Error))
    return false;
  const Value *Name = V.find("kind");
  if (!Name || !Name->isString() ||
      !enumFromTable(Name->asString(), WireKindNames, Kind)) {
    Error = "unknown request kind '" +
            (Name ? Name->asString() : std::string()) + "'";
    return false;
  }
  if (Kind != WireKind::Build)
    return true;
  const Value *R = V.find("request");
  if (!R) {
    Error = "build envelope has no request";
    return false;
  }
  return requestFromJson(*R, Req, Error);
}

std::string ipra::encodeBuildReply(const Result<BuildResponse> &R) {
  Value V = statusToJson(R);
  V.set("response", json::encode(R.Value));
  return V.dump();
}

std::string ipra::encodeStatusReply(const Status &S) {
  return statusToJson(S).dump();
}

std::string ipra::encodeStatsReply(const json::Value &Stats) {
  Value V = statusToJson(Status::success());
  V.set("stats", Stats);
  return V.dump();
}

Result<BuildResponse> ipra::decodeBuildReply(const std::string &Payload) {
  Value V;
  std::string Error;
  if (!Value::parse(Payload, V, Error))
    return Result<BuildResponse>::failure("bad reply frame: " + Error,
                                          "transport");
  Result<BuildResponse> R;
  static_cast<Status &>(R) = statusFromJson(V);
  if (const Value *Resp = V.find("response");
      Resp && !json::decodePresent(*Resp, R.Value, Error))
    return Result<BuildResponse>::failure(
        "bad reply frame: response field '" + Error +
            "' has an invalid value",
        "transport");
  return R;
}

Status ipra::decodeStatusReply(const std::string &Payload,
                               json::Value *Stats) {
  Value V;
  std::string Error;
  if (!Value::parse(Payload, V, Error))
    return Status::error("bad reply frame: " + Error, "transport");
  if (Stats)
    if (const Value *S = V.find("stats"))
      *Stats = *S;
  return statusFromJson(V);
}
