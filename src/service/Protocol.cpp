//===- Protocol.cpp - Build-service wire protocol -------------------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

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
// Config codec.
//===----------------------------------------------------------------------===//

namespace {

bool fieldBool(const Value &V, const char *Key, bool Default) {
  const Value *F = V.find(Key);
  return F ? F->asBool(Default) : Default;
}

std::string fieldStr(const Value &V, const char *Key) {
  const Value *F = V.find(Key);
  return F ? F->asString() : std::string();
}

} // namespace

bool ipra::configFromJson(const Value &V, PipelineConfig &C,
                          std::string &Error) {
  C = PipelineConfig();
  std::string Path;
  if (json::decodePresent(V, C, Path))
    return true;
  Error = Path.empty() ? "config is not an object"
                       : "config field '" + Path + "' has an invalid value";
  return false;
}

//===----------------------------------------------------------------------===//
// Request codec.
//===----------------------------------------------------------------------===//

Value ipra::requestToJson(const BuildRequest &Req) {
  Value V = Value::object();
  V.set("program", Value::str(Req.Program))
      .set("phase", Value::str(buildPhaseName(Req.Phase)))
      .set("config", json::encode(Req.Config));
  Value Modules = Value::array();
  for (const SourceFile &S : Req.Modules) {
    Value M = Value::object();
    M.set("name", Value::str(S.Name)).set("text", Value::str(S.Text));
    Modules.push(std::move(M));
  }
  V.set("modules", std::move(Modules));
  Value Summaries = Value::array();
  for (const std::string &S : Req.Summaries)
    Summaries.push(Value::str(S));
  V.set("summaries", std::move(Summaries));
  V.set("database", Value::str(Req.Database));
  Value Objects = Value::array();
  for (const std::string &O : Req.Objects)
    Objects.push(Value::str(O));
  V.set("objects", std::move(Objects));
  if (Req.Profile) {
    Value Profile = Value::object();
    Value Calls = Value::object();
    for (const auto &[Name, N] : Req.Profile->CallCounts)
      Calls.set(Name, Value::number(N));
    Profile.set("calls", std::move(Calls));
    Value Edges = Value::array();
    for (const auto &[Edge, N] : Req.Profile->EdgeCounts) {
      Value E = Value::array();
      E.push(Value::str(Edge.first))
          .push(Value::str(Edge.second))
          .push(Value::number(N));
      Edges.push(std::move(E));
    }
    Profile.set("edges", std::move(Edges));
    V.set("profile", std::move(Profile));
  }
  return V;
}

bool ipra::requestFromJson(const Value &V, BuildRequest &Req,
                           std::string &Error) {
  if (!V.isObject()) {
    Error = "request is not an object";
    return false;
  }
  Req = BuildRequest();
  Req.Program = fieldStr(V, "program");
  std::string Phase = fieldStr(V, "phase");
  if (!parseBuildPhase(Phase.empty() ? "full" : Phase, Req.Phase)) {
    Error = "unknown phase '" + Phase + "'";
    return false;
  }
  if (const Value *C = V.find("config");
      C && !configFromJson(*C, Req.Config, Error))
    return false;
  if (const Value *Modules = V.find("modules"))
    for (const Value &M : Modules->items()) {
      SourceFile S;
      S.Name = fieldStr(M, "name");
      S.Text = fieldStr(M, "text");
      Req.Modules.push_back(std::move(S));
    }
  if (const Value *Summaries = V.find("summaries"))
    for (const Value &S : Summaries->items())
      Req.Summaries.push_back(S.asString());
  Req.Database = fieldStr(V, "database");
  if (const Value *Objects = V.find("objects"))
    for (const Value &O : Objects->items())
      Req.Objects.push_back(O.asString());
  if (const Value *Profile = V.find("profile")) {
    ProfileData P;
    if (const Value *Calls = Profile->find("calls"))
      for (const auto &[Name, N] : Calls->members())
        P.CallCounts[Name] = N.asInt();
    if (const Value *Edges = Profile->find("edges"))
      for (const Value &E : Edges->items())
        if (E.items().size() == 3)
          P.EdgeCounts[{E.items()[0].asString(),
                        E.items()[1].asString()}] = E.items()[2].asInt();
    Req.Profile = std::move(P);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Response codec.
//===----------------------------------------------------------------------===//

Value ipra::responseToJson(const BuildResponse &Resp) {
  Value V = Value::object();
  V.set("program", Value::str(Resp.Program))
      .set("phase", Value::str(buildPhaseName(Resp.Phase)));
  Value Summaries = Value::array();
  for (const std::string &S : Resp.Summaries)
    Summaries.push(Value::str(S));
  V.set("summaries", std::move(Summaries));
  V.set("database", Value::str(Resp.Database));
  Value Objects = Value::array();
  for (const std::string &O : Resp.Objects)
    Objects.push(Value::str(O));
  V.set("objects", std::move(Objects));
  Value Lints = Value::array();
  for (const std::string &L : Resp.Lints)
    Lints.push(Value::str(L));
  V.set("lints", std::move(Lints));
  Value LintsJson = Value::array();
  for (const std::string &L : Resp.LintsJson)
    LintsJson.push(Value::str(L));
  V.set("lints-json", std::move(LintsJson));
  V.set("from-cache", Value::boolean(Resp.FromCache));
  V.set("analyzer", json::encode(Resp.Analyzer));
  V.set("delta", json::encode(Resp.Delta));
  Value Stats = json::encode(Resp.Stats);
  // Clients read the delta fallback reason from the stats object too.
  Stats.set("analyzer-fallback-reason", Value::str(Resp.Delta.FallbackReason));
  V.set("stats", std::move(Stats));
  return V;
}

BuildResponse ipra::responseFromJson(const Value &V) {
  BuildResponse Resp;
  Resp.Program = fieldStr(V, "program");
  std::string Phase = fieldStr(V, "phase");
  parseBuildPhase(Phase.empty() ? "full" : Phase, Resp.Phase);
  if (const Value *Summaries = V.find("summaries"))
    for (const Value &S : Summaries->items())
      Resp.Summaries.push_back(S.asString());
  Resp.Database = fieldStr(V, "database");
  if (const Value *Objects = V.find("objects"))
    for (const Value &O : Objects->items())
      Resp.Objects.push_back(O.asString());
  if (const Value *Lints = V.find("lints"))
    for (const Value &L : Lints->items())
      Resp.Lints.push_back(L.asString());
  if (const Value *LintsJson = V.find("lints-json"))
    for (const Value &L : LintsJson->items())
      Resp.LintsJson.push_back(L.asString());
  Resp.FromCache = fieldBool(V, "from-cache", false);
  if (const Value *A = V.find("analyzer"))
    json::decode(*A, Resp.Analyzer);
  if (const Value *D = V.find("delta"))
    json::decode(*D, Resp.Delta);
  if (const Value *S = V.find("stats"))
    json::decode(*S, Resp.Stats);
  return Resp;
}

//===----------------------------------------------------------------------===//
// Envelopes.
//===----------------------------------------------------------------------===//

std::string ipra::encodeBuildRequest(const BuildRequest &Req) {
  Value V = Value::object();
  V.set("kind", Value::str("build")).set("request", requestToJson(Req));
  return V.dump();
}

std::string ipra::encodeControlRequest(WireKind Kind) {
  Value V = Value::object();
  const char *Name = Kind == WireKind::Stats      ? "stats"
                     : Kind == WireKind::Shutdown ? "shutdown"
                                                  : "ping";
  V.set("kind", Value::str(Name));
  return V.dump();
}

bool ipra::decodeRequestEnvelope(const std::string &Payload, WireKind &Kind,
                                 BuildRequest &Req, std::string &Error) {
  Value V;
  if (!Value::parse(Payload, V, Error))
    return false;
  std::string Name = fieldStr(V, "kind");
  if (Name == "build") {
    Kind = WireKind::Build;
    const Value *R = V.find("request");
    if (!R) {
      Error = "build envelope has no request";
      return false;
    }
    return requestFromJson(*R, Req, Error);
  }
  if (Name == "stats") {
    Kind = WireKind::Stats;
    return true;
  }
  if (Name == "ping") {
    Kind = WireKind::Ping;
    return true;
  }
  if (Name == "shutdown") {
    Kind = WireKind::Shutdown;
    return true;
  }
  Error = "unknown request kind '" + Name + "'";
  return false;
}

namespace {

Value statusToJson(const Status &S) {
  Value V = Value::object();
  V.set("ok", Value::boolean(S.Ok))
      .set("code", Value::str(S.Code))
      .set("error", Value::str(S.Ok ? std::string() : S.text()));
  return V;
}

Status statusFromJson(const Value &V) {
  if (fieldBool(V, "ok", false))
    return Status::success();
  std::string Text = fieldStr(V, "error");
  return Status::error(Text.empty() ? "request failed" : Text,
                       fieldStr(V, "code"));
}

} // namespace

std::string ipra::encodeBuildReply(const Result<BuildResponse> &R) {
  Value V = statusToJson(R);
  V.set("response", responseToJson(R.Value));
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
  if (const Value *Resp = V.find("response"))
    R.Value = responseFromJson(*Resp);
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
