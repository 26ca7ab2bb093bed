//===- protocol_test.cpp - Wire-protocol codec and framing tests ----------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The protocol codecs are the single source of truth for mapping the
// BuildRequest/BuildResponse value types onto the daemon's JSON wire
// format. These tests pin the round-trip: every field that is allowed
// to cross the wire survives encode -> decode unchanged (checked down
// to the configuration fingerprint, which is what keys the service's
// retained sessions), CacheDir never crosses, and the framing layer
// rejects garbage rather than allocating it.
//
//===----------------------------------------------------------------------===//

#include "RecordLeaves.h"

#include "service/Protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <type_traits>
#include <unistd.h>

using namespace ipra;

namespace {

TEST(ProtocolTest, BuildPhaseNamesRoundTrip) {
  for (BuildPhase P :
       {BuildPhase::Summary, BuildPhase::Analyze, BuildPhase::Object,
        BuildPhase::Link, BuildPhase::Full, BuildPhase::Lint}) {
    BuildPhase Back;
    ASSERT_TRUE(enumFromName(enumName(P), Back)) << enumName(P);
    EXPECT_EQ(P, Back);
  }
  BuildPhase Out;
  EXPECT_FALSE(enumFromName("compile", Out));
  EXPECT_FALSE(enumFromName("", Out));
}

json::Value parseJson(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::Value::parse(Text, V, Error)) << Text << ": " << Error;
  return V;
}

/// Reads \p Config the way the daemon does: as a request's config.
bool configFromWire(const json::Value &Config, PipelineConfig &Out,
                    std::string &Error) {
  json::Value Req = json::Value::object();
  Req.set("config", Config);
  BuildRequest Back;
  if (!requestFromJson(Req, Back, Error))
    return false;
  Out = Back.Config;
  return true;
}

// Every preset, and each preset with one leaf of PipelineConfig::fields
// nudged, crosses the request envelope intact: a knob the wire drops or
// garbles fails here, including one a later change adds to the list.
TEST(ProtocolTest, ConfigRoundTripPreservesFingerprint) {
  PipelineConfig Andersen = PipelineConfig::configC();
  Andersen.PointsTo = PointsToMode::Andersen;
  const PipelineConfig Bases[] = {
      PipelineConfig::baseline(), PipelineConfig::configA(),
      PipelineConfig::configB(),  PipelineConfig::configC(),
      PipelineConfig::configD(),  PipelineConfig::configE(),
      PipelineConfig::configF(),  Andersen};
  for (const PipelineConfig &Base : Bases) {
    auto Configs = test::nudgedCopies(Base);
    Configs.emplace_back("(unnudged)", Base);
    for (const auto &[Path, C] : Configs) {
      WireKind Kind;
      BuildRequest Back;
      std::string Error;
      ASSERT_TRUE(decodeRequestEnvelope(
          encodeBuildRequest(BuildRequest::full(C, {}, "p")), Kind, Back,
          Error))
          << Path << ": " << Error;
      ASSERT_EQ(Kind, WireKind::Build) << Path;
      EXPECT_EQ(json::encode(Back.Config).dump(), json::encode(C).dump())
          << Path;
      // The fingerprint covers every allocation-relevant knob; equality
      // here is equality of retained-session keys on the service.
      EXPECT_EQ(Back.Config.fingerprint(), C.fingerprint()) << Path;
    }
  }
}

TEST(ProtocolTest, ConfigCacheDirNeverCrossesTheWire) {
  PipelineConfig C = PipelineConfig::configC();
  C.CacheDir = "/tmp/client-local-cache";
  PipelineConfig Back;
  std::string Error;
  ASSERT_TRUE(configFromWire(json::encode(C), Back, Error)) << Error;
  // Cache placement is server policy, not client input.
  EXPECT_EQ(Back.CacheDir, "");
  EXPECT_EQ(C.fingerprint(), Back.fingerprint())
      << "CacheDir must not fingerprint";
}

/// Decodes a summary request whose config object is \p Config.
bool decodeConfig(const std::string &Config, BuildRequest &Req,
                  std::string &Error) {
  return requestFromJson(
      parseJson("{\"phase\":\"summary\",\"config\":" + Config + "}"), Req,
      Error);
}

// Every present config value must be of its field's kind: the
// "points-to" and "promotion" fields take a mode name (the boolean
// points-to form older clients sent included), and anything else fails
// the request, naming the field by its dotted path.
TEST(ProtocolTest, PointsToFieldRejectsAnythingButAModeName) {
  const std::pair<const char *, const char *> Bad[] = {
      {R"({"points-to":"bogus"})", "points-to"},
      {R"({"points-to":7})", "points-to"},
      {R"({"points-to":true})", "points-to"},
      {R"({"promotion":"bogus"})", "promotion"},
      {R"({"promotion":1})", "promotion"},
      {R"({"modref":"yes"})", "modref"},
      {R"({"ipra":1})", "ipra"},
      {R"({"web-pool":-1})", "web-pool"},
      {R"({"num-threads":1e30})", "num-threads"},
      {R"({"delta-analysis":null})", "delta-analysis"},
      {R"({"split-sparse-webs":0})", "split-sparse-webs"},
      {R"({"remerge-webs":"yes"})", "remerge-webs"},
      {R"({"relax-web-avail":[true]})", "relax-web-avail"},
      {R"({"improved-free-sets":{}})", "improved-free-sets"},
  };
  for (const auto &[Config, Field] : Bad) {
    BuildRequest Req;
    std::string Error;
    EXPECT_FALSE(decodeConfig(Config, Req, Error)) << Config;
    EXPECT_NE(Error.find(std::string("'config.") + Field + "'"),
              std::string::npos)
        << Config << ": " << Error;
  }
  BuildRequest Req;
  std::string Error;
  EXPECT_FALSE(decodeConfig("7", Req, Error));
  EXPECT_NE(Error.find("config"), std::string::npos) << Error;

  ASSERT_TRUE(decodeConfig(R"({"points-to":"gpg","promotion":"greedy"})", Req,
                           Error))
      << Error;
  EXPECT_EQ(Req.Config.PointsTo, PointsToMode::GPG);
  EXPECT_EQ(Req.Config.Promotion, PromotionMode::Greedy);
}

// The wire carries exactly the listed knobs, flat: no nested options
// record and no cache placement. A request that still sends the nested
// webs/clusters/regsets objects or the blanket count older clients
// wrote decodes as if it had not.
TEST(ProtocolTest, WireConfigCarriesOnlyListedKnobs) {
  const PipelineConfig Config = PipelineConfig::configC();
  std::vector<std::string> Listed;
  PipelineConfig::fields(Config, [&](const char *Key, const auto &) {
    Listed.push_back(Key);
  });
  const json::Value Wire = json::encode(Config);
  std::vector<std::string> Sent;
  for (const auto &[Key, Value] : Wire.members()) {
    EXPECT_FALSE(Value.isObject()) << Key;
    Sent.push_back(Key);
  }
  EXPECT_EQ(Sent, Listed);
  EXPECT_EQ(std::count(Sent.begin(), Sent.end(), "cache-dir"), 0);

  BuildRequest Req;
  std::string Error;
  ASSERT_TRUE(decodeConfig(
      R"({"webs":{"split-sparse-webs":true,"min-lref-ratio":0.5},)"
      R"("clusters":{"root-benefit-threshold":2},)"
      R"("regsets":{"relax-web-avail":true},"blanket-count":3})",
      Req, Error))
      << Error;
  EXPECT_EQ(json::encode(Req.Config).dump(),
            json::encode(PipelineConfig()).dump());
}

TEST(ProtocolTest, RequestRoundTrip) {
  BuildRequest Req = BuildRequest::full(
      PipelineConfig::configB(),
      {SourceFile{"a.mc", "int main() { return 0; }\n"},
       SourceFile{"b.mc", "int g;\n"}},
      "prog-42");
  ProfileData Profile;
  Profile.CallCounts["main"] = 7;
  Profile.EdgeCounts[{"main", "f"}] = 3;
  Req.Profile = Profile;

  BuildRequest Back;
  std::string Error;
  ASSERT_TRUE(requestFromJson(json::encode(Req), Back, Error)) << Error;
  EXPECT_EQ(Back.Program, "prog-42");
  EXPECT_EQ(Back.Phase, BuildPhase::Full);
  EXPECT_EQ(Back.Config.fingerprint(), Req.Config.fingerprint());
  ASSERT_EQ(Back.Modules.size(), 2u);
  EXPECT_EQ(Back.Modules[0].Name, "a.mc");
  EXPECT_EQ(Back.Modules[1].Text, "int g;\n");
  ASSERT_TRUE(Back.Profile.has_value());
  EXPECT_EQ(Back.Profile->CallCounts.at("main"), 7);
  EXPECT_EQ(Back.Profile->EdgeCounts.at({"main", "f"}), 3);
}

TEST(ProtocolTest, PhaseRequestsRoundTrip) {
  BuildRequest An = BuildRequest::analyze(PipelineConfig::configC(),
                                          {"sum a", "sum b"}, "p");
  BuildRequest Back;
  std::string Error;
  ASSERT_TRUE(requestFromJson(json::encode(An), Back, Error)) << Error;
  EXPECT_EQ(Back.Phase, BuildPhase::Analyze);
  ASSERT_EQ(Back.Summaries.size(), 2u);
  EXPECT_EQ(Back.Summaries[1], "sum b");

  BuildRequest Obj = BuildRequest::object(
      PipelineConfig::configC(), {SourceFile{"m.mc", "int g;\n"}},
      "db text", "p");
  ASSERT_TRUE(requestFromJson(json::encode(Obj), Back, Error)) << Error;
  EXPECT_EQ(Back.Phase, BuildPhase::Object);
  EXPECT_EQ(Back.Database, "db text");
  ASSERT_EQ(Back.Modules.size(), 1u);

  BuildRequest Ln = BuildRequest::link({"obj a", "obj b"}, "p");
  ASSERT_TRUE(requestFromJson(json::encode(Ln), Back, Error)) << Error;
  EXPECT_EQ(Back.Phase, BuildPhase::Link);
  ASSERT_EQ(Back.Objects.size(), 2u);
}

// A present request value of the wrong kind fails the request, naming
// the field by its dotted path (elements by index); an absent key keeps
// its default.
TEST(ProtocolTest, RequestRejectsMistypedFields) {
  const std::pair<const char *, const char *> Bad[] = {
      {R"({"program":7})", "program"},
      {R"({"phase":"compile"})", "phase"},
      {R"({"phase":""})", "phase"},
      {R"({"modules":{"name":"a.mc"}})", "modules"},
      {R"({"modules":[{"name":"a.mc","text":5}]})", "modules[0].text"},
      {R"({"modules":[{"name":"a.mc"},7]})", "modules[1]"},
      {R"({"summaries":[7,true]})", "summaries[0]"},
      {R"({"database":["db"]})", "database"},
      {R"({"objects":"notalist"})", "objects"},
      {R"({"objects":["o",null]})", "objects[1]"},
      {R"({"profile":[]})", "profile"},
      {R"({"profile":{"calls":{"a.mc:main":"many"}}})",
       "profile.calls.a.mc:main"},
      {R"({"profile":{"calls":{"main":1,"main":2}}})", "profile.calls.main"},
      {R"({"profile":{"edges":"none"}})", "profile.edges"},
      {R"({"profile":{"edges":[["a","b"]]}})", "profile.edges[0]"},
      {R"({"profile":{"edges":[["a","b",1],["a","b",2.5]]}})",
       "profile.edges[1]"},
  };
  for (const auto &[Text, Field] : Bad) {
    BuildRequest Req;
    std::string Error;
    EXPECT_FALSE(requestFromJson(parseJson(Text), Req, Error)) << Text;
    EXPECT_NE(Error.find(std::string("'") + Field + "'"), std::string::npos)
        << Text << ": " << Error;
  }

  BuildRequest Req;
  std::string Error;
  EXPECT_FALSE(requestFromJson(parseJson("[]"), Req, Error));
  EXPECT_NE(Error.find("not an object"), std::string::npos) << Error;

  ASSERT_TRUE(requestFromJson(
      parseJson(R"({"modules":[{"name":"a.mc"}],"profile":{}})"), Req, Error))
      << Error;
  EXPECT_EQ(Req.Phase, BuildPhase::Full);
  EXPECT_EQ(Req.Program, "");
  ASSERT_EQ(Req.Modules.size(), 1u);
  EXPECT_EQ(Req.Modules[0].Name, "a.mc");
  EXPECT_EQ(Req.Modules[0].Text, "");
  ASSERT_TRUE(Req.Profile.has_value());
  EXPECT_TRUE(Req.Profile->EdgeCounts.empty());
}

// Profile counts are exact 64-bit integers on the wire, past the 2^53 a
// double carries.
TEST(ProtocolTest, ProfileCountsRoundTripExactly) {
  BuildRequest Req = BuildRequest::analyze(PipelineConfig::configF(), {});
  ProfileData Profile;
  Profile.CallCounts["main"] = 999'999'999'999'999'943LL;
  Profile.EdgeCounts[{"main", "f"}] = (1LL << 53) + 1;
  Req.Profile = Profile;
  WireKind Kind;
  BuildRequest Back;
  std::string Error;
  ASSERT_TRUE(
      decodeRequestEnvelope(encodeBuildRequest(Req), Kind, Back, Error))
      << Error;
  ASSERT_TRUE(Back.Profile.has_value());
  EXPECT_EQ(*Back.Profile, Profile);
}

/// Gives every field of \p F a non-default value through the records'
/// field lists: numbers count up from \p Next (so no two are equal),
/// strings name their counter, bools are true, enums their non-default
/// value, and vectors get one element.
template <typename T> void fillFields(T &F, int &Next) {
  if constexpr (std::is_same_v<T, bool>)
    F = true;
  else if constexpr (std::is_same_v<T, DeltaMode>)
    F = DeltaMode::Incremental;
  else if constexpr (std::is_floating_point_v<T>)
    F = ++Next + 0.25;
  else if constexpr (std::is_arithmetic_v<T>)
    F = static_cast<T>(++Next);
  else if constexpr (std::is_same_v<T, std::string>)
    F = "s" + std::to_string(++Next);
  else if constexpr (json::IsVector<T>::value)
    fillFields(F.emplace_back(), Next);
  else
    T::fields(F, [&Next](const char *, auto &M) { fillFields(M, Next); });
}

/// Every leaf field of \p F as a (key path, rendered value) pair.
template <typename T>
void flattenFields(const T &F, const std::string &Path,
                   std::vector<std::pair<std::string, std::string>> &Out) {
  if constexpr (std::is_same_v<T, DeltaMode>) {
    Out.emplace_back(Path, enumName(F));
  } else if constexpr (std::is_arithmetic_v<T>) {
    std::ostringstream OS;
    OS << std::setprecision(17) << F;
    Out.emplace_back(Path, OS.str());
  } else if constexpr (std::is_same_v<T, std::string>) {
    Out.emplace_back(Path, F);
  } else if constexpr (json::IsVector<T>::value) {
    Out.emplace_back(Path + ".size", std::to_string(F.size()));
    for (size_t I = 0; I < F.size(); ++I)
      flattenFields(F[I], Path + "[" + std::to_string(I) + "]", Out);
  } else {
    T::fields(F, [&](const char *Key, const auto &M) {
      flattenFields(M, Path + "." + Key, Out);
    });
  }
}

template <typename T>
std::vector<std::pair<std::string, std::string>> flatten(const T &F) {
  std::vector<std::pair<std::string, std::string>> Out;
  flattenFields(F, "", Out);
  return Out;
}

/// Fills every listed field of \p Rec and checks that each one differs
/// from the default; returns the number of leaf fields.
template <typename T> size_t fillAndCheck(T &Rec, int &Next) {
  fillFields(Rec, Next);
  auto Filled = flatten(Rec);
  auto Defaults = flatten(T());
  for (size_t I = 0; I < Filled.size(); ++I) {
    if (I < Defaults.size() && Filled[I].first == Defaults[I].first) {
      EXPECT_NE(Filled[I].second, Defaults[I].second) << Filled[I].first;
    }
  }
  return Filled.size();
}

TEST(ProtocolTest, ResponseRoundTrip) {
  BuildResponse Resp;
  Resp.Program = "p";
  Resp.Phase = BuildPhase::Full;
  Resp.Summaries = {"s1", "s2"};
  Resp.Database = "db";
  Resp.Objects = {"o1", "o2", "o3"};
  Resp.FromCache = true;
  Resp.Lints = {"lint: dead-global: g: unused"};
  Resp.LintsJson = {"{\"kind\":\"dead-global\"}"};
  // Every statistic, through the field lists: one Modules entry and the
  // Cache snapshot included.
  int Next = 0;
  EXPECT_GE(fillAndCheck(Resp.Analyzer, Next), 26u);
  EXPECT_GE(fillAndCheck(Resp.Delta, Next), 7u);
  EXPECT_GE(fillAndCheck(Resp.Stats, Next), 23u + 15u + 1u + 10u);
  ASSERT_EQ(Resp.Stats.Modules.size(), 1u);

  json::Value Parsed = parseJson(json::encode(Resp).dump());
  BuildResponse Back;
  std::string Path;
  ASSERT_TRUE(json::decodePresent(Parsed, Back, Path)) << Path;
  EXPECT_EQ(Back.Program, "p");
  EXPECT_EQ(Back.Summaries, Resp.Summaries);
  EXPECT_EQ(Back.Database, "db");
  EXPECT_EQ(Back.Objects, Resp.Objects);
  EXPECT_TRUE(Back.FromCache);
  EXPECT_EQ(flatten(Back.Analyzer), flatten(Resp.Analyzer));
  EXPECT_EQ(flatten(Back.Delta), flatten(Resp.Delta));
  EXPECT_EQ(flatten(Back.Stats), flatten(Resp.Stats));
  EXPECT_EQ(Back.Lints, Resp.Lints);
  EXPECT_EQ(Back.LintsJson, Resp.LintsJson);
  // The executable never crosses the wire.
  EXPECT_TRUE(Back.Exe.Code.empty());

  // The stats object keeps every key older readers know, including the
  // delta fallback reason.
  const json::Value *Stats = Parsed.find("stats");
  ASSERT_NE(Stats, nullptr);
  for (const char *Key :
       {"threads-used", "front-end-ms", "phase1-ms", "analyzer-ms",
        "phase2-ms", "link-ms", "total-ms", "analyzer-mode",
        "analyzer-fallback-reason", "phase1-cache-hits",
        "phase1-cache-misses", "analyzer-cache-hits",
        "analyzer-cache-misses", "phase2-cache-hits", "phase2-cache-misses",
        "cache-bytes-saved", "summary-bytes", "database-bytes",
        "object-bytes"})
    EXPECT_NE(Stats->find(Key), nullptr) << Key;
  EXPECT_EQ(Stats->find("analyzer-fallback-reason")->asString(),
            Resp.Delta.FallbackReason);
}

TEST(ProtocolTest, EnvelopeDispatch) {
  WireKind Kind;
  BuildRequest Req;
  std::string Error;

  BuildRequest Original =
      BuildRequest::full(PipelineConfig::configC(),
                         {SourceFile{"m.mc", "int g;\n"}}, "p");
  ASSERT_TRUE(decodeRequestEnvelope(encodeBuildRequest(Original), Kind,
                                    Req, Error))
      << Error;
  EXPECT_EQ(Kind, WireKind::Build);
  EXPECT_EQ(Req.Program, "p");

  for (WireKind Control :
       {WireKind::Stats, WireKind::Ping, WireKind::Shutdown}) {
    ASSERT_TRUE(decodeRequestEnvelope(encodeControlRequest(Control), Kind,
                                      Req, Error))
        << Error;
    EXPECT_EQ(Kind, Control);
  }
}

TEST(ProtocolTest, UnknownEnvelopeFieldsAreIgnored) {
  // Forward compatibility: a newer client may add envelope fields an
  // older daemon does not know. They must be skipped, not fatal.
  WireKind Kind;
  BuildRequest Req;
  std::string Error;
  BuildRequest Original = BuildRequest::full(
      PipelineConfig::configC(), {SourceFile{"m.mc", "int g;\n"}}, "p");
  std::string Envelope = encodeBuildRequest(Original);
  ASSERT_EQ(Envelope.back(), '}');
  Envelope.pop_back();
  Envelope += ",\"future-field\":42,\"future-obj\":{\"nested\":[1,2]}}";
  ASSERT_TRUE(decodeRequestEnvelope(Envelope, Kind, Req, Error)) << Error;
  EXPECT_EQ(Kind, WireKind::Build);
  EXPECT_EQ(Req.Program, "p");
  EXPECT_EQ(Req.Config.fingerprint(),
            Original.Config.fingerprint());
}

TEST(ProtocolTest, MalformedEnvelopesAreRejected) {
  WireKind Kind;
  BuildRequest Req;
  std::string Error;
  EXPECT_FALSE(decodeRequestEnvelope("not json", Kind, Req, Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(decodeRequestEnvelope("{\"kind\":\"explode\"}", Kind, Req,
                                     Error));
  EXPECT_FALSE(decodeRequestEnvelope("{\"kind\":\"build\"}", Kind, Req,
                                     Error))
      << "build envelope without a request body must not decode";
  EXPECT_FALSE(decodeRequestEnvelope("[1,2,3]", Kind, Req, Error));
}

TEST(ProtocolTest, ReplyRoundTrip) {
  // Success build reply.
  BuildResponse Resp;
  Resp.Program = "p";
  Resp.Database = "db";
  Result<BuildResponse> Ok = Result<BuildResponse>::success(Resp);
  Result<BuildResponse> OkBack = decodeBuildReply(encodeBuildReply(Ok));
  ASSERT_TRUE(OkBack.ok()) << OkBack.text();
  EXPECT_EQ(OkBack.Value.Database, "db");

  // Failure build reply keeps the machine-readable code and the text.
  Result<BuildResponse> Busy = Result<BuildResponse>::failure(
      "build service queue is full (4 requests); retry", "busy");
  Result<BuildResponse> BusyBack =
      decodeBuildReply(encodeBuildReply(Busy));
  EXPECT_FALSE(BusyBack.ok());
  EXPECT_EQ(BusyBack.Code, "busy");
  EXPECT_NE(BusyBack.text().find("queue is full"), std::string::npos);

  // Status replies.
  Status SBack = decodeStatusReply(encodeStatusReply(Status::success()));
  EXPECT_TRUE(SBack.ok());
  SBack = decodeStatusReply(
      encodeStatusReply(Status::error("draining", "shutdown")));
  EXPECT_FALSE(SBack.ok());
  EXPECT_EQ(SBack.Code, "shutdown");

  // Stats reply carries the JSON object through.
  json::Value Stats = json::Value::object();
  Stats.set("delta-hits", json::Value::number(3));
  json::Value StatsBack;
  ASSERT_TRUE(decodeStatusReply(encodeStatsReply(Stats), &StatsBack).ok());
  EXPECT_EQ(StatsBack.dump(), Stats.dump());

  // Garbage replies decode as transport failures, not crashes.
  Result<BuildResponse> Garbage = decodeBuildReply("][");
  EXPECT_FALSE(Garbage.ok());
  EXPECT_EQ(Garbage.Code, "transport");
}

TEST(ProtocolTest, FramingRoundTripsOverAPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);

  // Several frames, including an empty payload and an 8 KiB one,
  // written back-to-back and read back in order.
  std::string Big(8192, 'x');
  Big[4096] = '\0'; // Frames are byte-transparent.
  std::vector<std::string> Payloads = {"hello", "", Big, "{\"k\":1}"};
  for (const std::string &P : Payloads)
    ASSERT_TRUE(writeFrame(Fds[1], P));
  for (const std::string &P : Payloads) {
    std::string Back;
    ASSERT_TRUE(readFrame(Fds[0], Back));
    EXPECT_EQ(Back, P);
  }

  // EOF is a clean false, not a hang or a crash.
  ::close(Fds[1]);
  std::string Tail;
  EXPECT_FALSE(readFrame(Fds[0], Tail));
  ::close(Fds[0]);
}

TEST(ProtocolTest, FramingRejectsOversizedLengthPrefix) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  // A garbage length prefix far beyond MaxFrameBytes must be rejected
  // before any allocation of that size happens.
  unsigned char Prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(Fds[1], Prefix, 4), 4);
  std::string Payload;
  EXPECT_FALSE(readFrame(Fds[0], Payload));
  ::close(Fds[0]);
  ::close(Fds[1]);
}

} // namespace
