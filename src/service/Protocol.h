//===- Protocol.h - Build-service wire protocol ----------------*- C++ -*-===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's wire protocol: length-prefixed JSON frames over a
/// stream socket. A frame is a 4-byte big-endian payload length
/// followed by that many bytes of UTF-8 JSON. Requests are an envelope
///
///   {"kind":"build","request":{...BuildRequest...}}
///   {"kind":"stats"}  {"kind":"ping"}  {"kind":"shutdown"}
///
/// and every reply is {"ok":...,"code":...,"error":...} plus a
/// kind-specific payload ("response" for builds, "stats" for stats).
/// The executable never crosses the wire: a build reply carries the
/// textual artifacts (summaries / database / objects) and the client
/// links locally, which keeps replies bounded and lets the client
/// verify byte-identical output parity against a local build.
///
/// The request and the response are records: their field lists
/// (driver/BuildRequest.h) drive json::encode on the way out and
/// json::decodePresent on the way in, and the daemon, the client and the
/// protocol tests all go through the envelope functions here. A request
/// key that is absent keeps its default; a present value of the wrong
/// kind fails the request, naming the field by its dotted path.
/// PipelineConfig::CacheDir deliberately never crosses the wire — cache
/// placement is server policy, not client input.
///
//===----------------------------------------------------------------------===//

#ifndef IPRA_SERVICE_PROTOCOL_H
#define IPRA_SERVICE_PROTOCOL_H

#include "driver/BuildRequest.h"
#include "support/Json.h"
#include "support/Status.h"

#include <string>

namespace ipra {

/// Maximum accepted frame payload (64 MiB) — a sanity bound against a
/// garbage length prefix, far above any real program this pipeline
/// compiles.
inline constexpr size_t MaxFrameBytes = 64u << 20;

/// Writes one length-prefixed frame; retries partial writes. Returns
/// false on a write error (EPIPE when the peer vanished, etc.).
bool writeFrame(int Fd, const std::string &Payload);

/// Typed outcome of reading one frame, so the daemon can answer a
/// protocol violation with a typed error before closing instead of
/// silently dropping the connection.
enum class FrameRead {
  Ok,        ///< A complete frame is in \p Payload.
  Eof,       ///< Clean close: EOF before any header byte.
  Oversize,  ///< Declared length exceeds MaxFrameBytes. The payload was
             ///< neither allocated nor read — the stream is
             ///< desynchronized and must be closed after replying.
  Timeout,   ///< A read deadline (Transport.h setIoDeadline) fired.
  Truncated, ///< EOF mid-header or mid-payload: a partial frame.
  Error,     ///< Any other read error.
};

/// Reads one length-prefixed frame into \p Payload with a typed
/// result. The length prefix is validated against \p MaxBytes *before*
/// any allocation, so a garbage prefix can never trigger a giant
/// resize.
FrameRead readFrameEx(int Fd, std::string &Payload,
                      size_t MaxBytes = MaxFrameBytes);

/// Reads one length-prefixed frame into \p Payload. Returns false on
/// EOF, a read error, or an oversized length prefix (readFrameEx
/// distinguishes them).
bool readFrame(int Fd, std::string &Payload);

// Request side -----------------------------------------------------------

/// What a decoded request envelope asks for.
enum class WireKind { Build, Stats, Ping, Shutdown };

/// Encodes the envelope for a build request.
std::string encodeBuildRequest(const BuildRequest &Req);
/// Encodes a control envelope ("stats", "ping", "shutdown").
std::string encodeControlRequest(WireKind Kind);

/// Decodes one request envelope. On Kind == Build, \p Req is filled.
/// Returns false with \p Error on malformed input.
bool decodeRequestEnvelope(const std::string &Payload, WireKind &Kind,
                           BuildRequest &Req, std::string &Error);

// Reply side -------------------------------------------------------------

/// Encodes a build reply (status + response payload, no executable).
std::string encodeBuildReply(const Result<BuildResponse> &R);
/// Encodes a bare status reply (ping/shutdown acks, decode failures).
std::string encodeStatusReply(const Status &S);
/// Encodes the stats reply around a caller-built JSON stats object.
std::string encodeStatsReply(const json::Value &Stats);

/// Decodes a build reply. Transport-level JSON breakage, or a response
/// value of the wrong kind, yields a failure Result with code
/// "transport".
Result<BuildResponse> decodeBuildReply(const std::string &Payload);
/// Decodes any reply's status portion (and, for stats replies, hands
/// back the stats object via \p Stats).
Status decodeStatusReply(const std::string &Payload,
                         json::Value *Stats = nullptr);

/// Reads a wire request (json::encode of BuildRequest). An absent key
/// keeps its default; a present one of the wrong kind, or an unknown
/// phase / promotion / points-to name, fails the request, naming the
/// field in \p Error by its dotted path ("config.split-sparse-webs",
/// "modules[0].text").
bool requestFromJson(const json::Value &V, BuildRequest &Req,
                     std::string &Error);

} // namespace ipra

#endif // IPRA_SERVICE_PROTOCOL_H
