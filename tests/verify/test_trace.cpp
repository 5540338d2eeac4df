// The decision-trace format: JSON round-trips, parse errors are diagnosed
// with a line and column, and the human rendering names components.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/minimpi/error.hpp"
#include "src/minimpi/verify/trace.hpp"

namespace {

using minimpi::verify::Decision;
using minimpi::verify::Trace;

Trace sample_trace() {
  Trace trace;
  trace.seed = 42;
  trace.decisions.push_back(
      Decision{0, "recv", 3, 7, 2, {1, 2, 5}, false});
  trace.decisions.push_back(Decision{4, "probe", 0, -1, 1, {1}, false});
  trace.decisions.push_back(Decision{0, "iprobe", 3, 7, 5, {2, 5}, true});
  return trace;
}

TEST(VerifyTrace, JsonRoundTripPreservesEverything) {
  const Trace trace = sample_trace();
  const Trace parsed = Trace::from_json(trace.to_json());
  EXPECT_EQ(parsed, trace);
  EXPECT_EQ(parsed.seed, 42u);
  ASSERT_EQ(parsed.decisions.size(), 3u);
  EXPECT_EQ(parsed.decisions[0].candidates,
            (std::vector<minimpi::rank_t>{1, 2, 5}));
  EXPECT_TRUE(parsed.decisions[2].immediate);
  // Serialization is canonical: a second round trip is byte-identical.
  EXPECT_EQ(parsed.to_json(), trace.to_json());
}

TEST(VerifyTrace, EmptyTraceRoundTrips) {
  Trace trace;
  trace.seed = 1;
  const Trace parsed = Trace::from_json(trace.to_json());
  EXPECT_EQ(parsed, trace);
  EXPECT_TRUE(parsed.decisions.empty());
}

TEST(VerifyTrace, SixtyFourBitSeedRoundTripsExactly) {
  // Above 2^53 a double cannot hold the seed; the reader must not go
  // through one.
  Trace trace = sample_trace();
  trace.seed = UINT64_MAX;
  const Trace parsed = Trace::from_json(trace.to_json());
  EXPECT_EQ(parsed.seed, UINT64_MAX);
  EXPECT_EQ(parsed, trace);
  trace.seed = 18446744073709551557ULL;  // the largest 64-bit prime
  EXPECT_EQ(Trace::from_json(trace.to_json()).seed, trace.seed);
}

TEST(VerifyTrace, ParseErrorsNameTheOffset) {
  try {
    (void)Trace::from_json("{\"version\": 1, \"seed\": oops}");
    FAIL() << "expected a parse error";
  } catch (const minimpi::Error& e) {
    // `oops` starts at line 1, column 24.
    EXPECT_NE(std::string(e.what()).find(
                  "trace parse error: json: expected a value at line 1, "
                  "column 24"),
              std::string::npos)
        << e.what();
  }
}

/// The message Trace::from_json rejects `members` with, after the
/// envelope's kind and version.
std::string rejection(const std::string& members,
                      const std::string& version = "2") {
  try {
    (void)Trace::from_json("{\"kind\": \"mph_verify_trace\", \"version\": " +
                           version + ", " + members + "}");
  } catch (const minimpi::Error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(VerifyTrace, RejectsUnknownKeysAndOutOfRangeIntegers) {
  EXPECT_EQ(rejection("\"seed\": 1"), "accepted");
  EXPECT_NE(rejection("\"sed\": 1").find("unknown trace key \"sed\""),
            std::string::npos);
  EXPECT_NE(rejection("\"seed\": 1, \"decisions\": [{\"rank\": 4294967296}]")
                .find("\"rank\" value 4294967296 out of range"),
            std::string::npos);
  EXPECT_NE(rejection("\"seed\": 1, \"decisions\": [{\"chosen\": 0}]")
                .find("unknown decision key \"chosen\""),
            std::string::npos);
  EXPECT_NE(rejection("\"seed\": -1"), "accepted");
}

TEST(VerifyTrace, RejectsUnknownVersion) {
  EXPECT_NE(rejection("\"seed\": 1, \"decisions\": []", "9")
                .find("unsupported trace version 9"),
            std::string::npos);
  // Version 1 dumps predate the shared envelope: named, not misread.
  EXPECT_NE(rejection("\"seed\": 1", "1").find("unsupported trace version 1"),
            std::string::npos);
}

TEST(VerifyTrace, HumanRenderingUsesLabels) {
  const std::string text = sample_trace().to_string(
      [](minimpi::rank_t rank) { return rank == 0 ? "coupler" : "ocean"; });
  EXPECT_NE(text.find("coupler[0]"), std::string::npos) << text;
  EXPECT_NE(text.find("ocean[2]"), std::string::npos) << text;
  EXPECT_NE(text.find("[immediate]"), std::string::npos) << text;
}

}  // namespace
