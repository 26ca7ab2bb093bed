//===- json_edge_test.cpp - JSON parser/encoder edge cases ----------------===//
//
// Part of the IPRA project: a reproduction of Santhanam & Odnert,
// "Register Allocation Across Procedure and Module Boundaries", PLDI 1990.
//
//===----------------------------------------------------------------------===//
//
// The JSON layer carries every byte of the daemon wire protocol, so
// its edges are protocol edges: unterminated strings and containers,
// invalid and truncated escapes, pathological nesting depth (bounded,
// not stack-crashed), duplicate keys, trailing garbage, and the
// numeric extremes the counters and timings actually traverse. The
// encoder side is pinned too: control bytes escape, non-ASCII bytes
// pass through verbatim, and dump() -> parse() is the identity on
// everything the service emits.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

using namespace ipra;
using json::Value;

namespace {

bool parses(const std::string &Text, Value *Out = nullptr,
            std::string *Err = nullptr) {
  Value V;
  std::string E;
  bool Ok = Value::parse(Text, V, E);
  if (Out)
    *Out = V;
  if (Err)
    *Err = E;
  return Ok;
}

TEST(JsonEdge, UnterminatedStringsFail) {
  std::string Err;
  EXPECT_FALSE(parses("\"abc", nullptr, &Err));
  EXPECT_NE(Err.find("unterminated"), std::string::npos) << Err;
  EXPECT_FALSE(parses("{\"k\": \"abc", nullptr, &Err));
  EXPECT_FALSE(parses("\"ends with escape\\", nullptr, &Err));
}

TEST(JsonEdge, UnterminatedContainersFail) {
  EXPECT_FALSE(parses("{\"k\": 1"));
  EXPECT_FALSE(parses("[1, 2"));
  EXPECT_FALSE(parses("{\"k\""));
  EXPECT_FALSE(parses("{\"k\":"));
  EXPECT_FALSE(parses("["));
  EXPECT_FALSE(parses("{"));
}

TEST(JsonEdge, NestingIsBoundedNotStackCrashed) {
  // Comfortably inside the parser's depth bound.
  std::string Shallow(32, '[');
  Shallow += std::string(32, ']');
  EXPECT_TRUE(parses(Shallow));

  // A hostile frame with thousands of opens must fail cleanly (depth
  // bound), not exhaust the stack.
  std::string Deep(5000, '[');
  Deep += std::string(5000, ']');
  std::string Err;
  EXPECT_FALSE(parses(Deep, nullptr, &Err));
  EXPECT_FALSE(Err.empty());

  // Same for objects.
  std::string DeepObj;
  for (int I = 0; I < 5000; ++I)
    DeepObj += "{\"k\":";
  DeepObj += "1";
  for (int I = 0; I < 5000; ++I)
    DeepObj += "}";
  EXPECT_FALSE(parses(DeepObj));
}

TEST(JsonEdge, InvalidEscapesFail) {
  std::string Err;
  EXPECT_FALSE(parses("\"\\q\"", nullptr, &Err));
  EXPECT_NE(Err.find("escape"), std::string::npos) << Err;
  EXPECT_FALSE(parses("\"\\u12\"", nullptr, &Err)); // Truncated.
  EXPECT_FALSE(parses("\"\\uzzzz\"", nullptr, &Err)); // Bad hex.
}

TEST(JsonEdge, ValidEscapesDecode) {
  Value V;
  ASSERT_TRUE(parses("\"a\\n\\t\\\"\\\\\\/b\"", &V));
  EXPECT_EQ(V.asString(), "a\n\t\"\\/b");
  ASSERT_TRUE(parses("\"\\u0041\"", &V));
  EXPECT_EQ(V.asString(), "A");
  // BMP code points decode to UTF-8 (robustness against other
  // writers; our own encoder only emits \u00XX for control bytes).
  ASSERT_TRUE(parses("\"\\u00e9\"", &V));
  EXPECT_EQ(V.asString(), "\xc3\xa9");
  ASSERT_TRUE(parses("\"\\u20ac\"", &V));
  EXPECT_EQ(V.asString(), "\xe2\x82\xac");
}

TEST(JsonEdge, ControlAndHighBytesRoundTripThroughDump) {
  // Control bytes escape; bytes >= 0x80 (raw source text) pass through
  // verbatim — both must survive dump() -> parse() exactly.
  std::string Raw = "line1\nline2\ttab\x01\x1f high\xc3\xa9 bytes\xff";
  Value V = Value::str(Raw);
  std::string Dumped = V.dump();
  EXPECT_NE(Dumped.find("\\n"), std::string::npos);
  EXPECT_NE(Dumped.find("\\u0001"), std::string::npos);
  Value Back;
  std::string Err;
  ASSERT_TRUE(Value::parse(Dumped, Back, Err)) << Err;
  EXPECT_EQ(Back.asString(), Raw);
}

TEST(JsonEdge, DuplicateKeysParseAndFindReturnsTheFirst) {
  Value V;
  ASSERT_TRUE(parses("{\"k\": 1, \"k\": 2}", &V));
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.members().size(), 2u) << "both pairs are preserved";
  const Value *K = V.find("k");
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(K->asInt(), 1) << "find() is first-wins, deterministically";
}

TEST(JsonEdge, TrailingGarbageIsRejected) {
  EXPECT_FALSE(parses("1 2"));
  EXPECT_FALSE(parses("{} x"));
  EXPECT_FALSE(parses("[1] ["));
  // Whitespace padding alone is fine.
  EXPECT_TRUE(parses("  {\"k\": 1}  \n"));
}

TEST(JsonEdge, MalformedNumbersFail) {
  EXPECT_FALSE(parses("-"));
  EXPECT_FALSE(parses("1.2.3"));
  EXPECT_FALSE(parses("1e"));
  EXPECT_FALSE(parses("nan"));
}

TEST(JsonEdge, NumericExtremesRoundTrip) {
  // Integers to 2^53 are exact (the counters the service emits).
  const double Exact = 9007199254740992.0; // 2^53.
  for (double N : {0.0, -0.0, 1.5, -1.5, 1e-9, 1e100, -1e100, 12345.6789,
                   Exact, Exact - 1}) {
    Value V = Value::number(N);
    Value Back;
    std::string Err;
    ASSERT_TRUE(Value::parse(V.dump(), Back, Err))
        << V.dump() << ": " << Err;
    ASSERT_TRUE(Back.isNumber()) << V.dump();
    EXPECT_EQ(Back.asNumber(), N) << V.dump();
  }
  // JSON has no Inf/NaN: the encoder degrades them to null explicitly
  // rather than emitting a token the other side cannot parse.
  EXPECT_EQ(Value::number(HUGE_VAL).dump(), "null");
  EXPECT_EQ(Value::number(std::nan("")).dump(), "null");
}

TEST(JsonEdge, OutOfRangeNumbersHaveNoIntegerReading) {
  // A number outside long long (or not finite: strtod turns 1e999 into
  // infinity) reads as the default, like a mistyped value, instead of
  // an undefined float-to-integer conversion.
  for (const char *Text : {"1e300", "-1e300", "1e999", "-1e999",
                           "9223372036854775808"}) {
    Value V;
    ASSERT_TRUE(parses(Text, &V)) << Text;
    EXPECT_EQ(V.asInt(7), 7) << Text;
  }
  Value V;
  ASSERT_TRUE(parses("-9223372036854775808", &V));
  EXPECT_EQ(V.asInt(7), -9223372036854775807LL - 1);
  ASSERT_TRUE(parses("-1e18", &V));
  EXPECT_EQ(V.asInt(7), -1000000000000000000LL);
}

TEST(JsonEdge, IntegersAreExactOverLongLong) {
  // An integer literal is exact over all of long long, past the 2^53 a
  // double carries (profile counts and counters are long long).
  for (long long N : {0LL, -1LL, (1LL << 53) + 1, 999'999'999'999'999'943LL,
                      1'000'000'000'000'000'000LL,
                      std::numeric_limits<long long>::max(),
                      std::numeric_limits<long long>::min()}) {
    Value V = Value::number(N);
    EXPECT_EQ(V.dump(), std::to_string(N));
    Value Back;
    ASSERT_TRUE(parses(V.dump(), &Back)) << N;
    EXPECT_TRUE(Back.isExactInteger()) << N;
    EXPECT_EQ(Back.asInt(), N);
    long long Decoded = 0;
    ASSERT_TRUE(json::decode(Back, Decoded)) << N;
    EXPECT_EQ(Decoded, N);
  }
  // A fraction or an exponent is a double; an integer field takes only a
  // whole number inside its range.
  Value V;
  int Small = 0;
  ASSERT_TRUE(parses("2.5", &V));
  EXPECT_FALSE(V.isExactInteger());
  EXPECT_FALSE(json::decode(V, Small));
  ASSERT_TRUE(parses("1e3", &V));
  ASSERT_TRUE(json::decode(V, Small));
  EXPECT_EQ(Small, 1000);
  ASSERT_TRUE(parses("4294967296", &V));
  EXPECT_FALSE(json::decode(V, Small));
  // A double field takes no overflowing literal (encode writes none).
  double D = 0;
  ASSERT_TRUE(parses("1e999", &V));
  EXPECT_FALSE(json::decode(V, D));
}

TEST(JsonEdge, NodeSetsAreAscendingIdArrays) {
  NodeSet S = NodeSet::withUniverse(5000);
  for (int N : {0, 63, 64, 4095, 4999})
    S.insert(N);
  Value V = json::encode(S);
  EXPECT_EQ(V.dump(), "[0,63,64,4095,4999]");
  NodeSet Back;
  ASSERT_TRUE(json::decode(V, Back));
  EXPECT_EQ(Back, S);
  EXPECT_EQ(json::encode(Back).dump(), V.dump());
  // Only the canonical form decodes: strictly ascending whole ids >= 0.
  for (const char *Text : {"[3,1]", "[1,1]", "[-1]", "[1.5]", "[\"1\"]",
                           "{}", "7"}) {
    ASSERT_TRUE(parses(Text, &V)) << Text;
    EXPECT_FALSE(json::decode(V, Back)) << Text;
  }
}

TEST(JsonEdge, LenientAccessorsDefaultOnWrongKind) {
  Value V;
  ASSERT_TRUE(parses("{\"s\": \"text\", \"n\": 3}", &V));
  // A decoder probing with the wrong type gets the default, exactly as
  // if the key were absent — absent and mistyped are handled alike.
  EXPECT_EQ(V.find("s")->asInt(7), 7);
  EXPECT_FALSE(V.find("s")->asBool());
  EXPECT_EQ(V.find("n")->asString(), "");
  EXPECT_EQ(V.find("missing"), nullptr);
}

TEST(JsonEdge, DeterministicObjectOrderInDump) {
  Value V = Value::object();
  V.set("z", Value::number(1));
  V.set("a", Value::number(2));
  V.set("m", Value::number(3));
  // Insertion order, not sorted: encoded requests stay diffable.
  EXPECT_EQ(V.dump(), "{\"z\":1,\"a\":2,\"m\":3}");
}

} // namespace
