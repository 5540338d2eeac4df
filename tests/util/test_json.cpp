// JSON parser unit tests, including the line:column diagnostics contract
// that `mph conform` / `mph trace` error messages rely on.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/util/json.hpp"

namespace u = mph::util;

namespace {

/// Parse and return the failure message (the input must be malformed).
std::string parse_error(std::string_view text) {
  try {
    (void)u::JsonValue::parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "input parsed successfully: " << text;
  return {};
}

}  // namespace

TEST(Json, ParsesScalarsAndContainers) {
  const u::JsonValue doc = u::JsonValue::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -3}})");
  EXPECT_DOUBLE_EQ(doc.at("a").as_number(), 1.5);
  EXPECT_TRUE(doc.at("b").at(0).as_bool());
  EXPECT_TRUE(doc.at("b").at(1).is_null());
  EXPECT_EQ(doc.at("b").at(2).as_string(), "x\n");
  EXPECT_EQ(doc.at("c").at("d").as_int(), -3);
}

TEST(Json, ErrorsReportLineAndColumnNotByteOffset) {
  // Regression for the multiline case: the bad token sits on line 4, and
  // the report must say so instead of printing a byte offset nobody can
  // map back to a position in an editor.
  const std::string text =
      "{\n"
      "  \"events\": [\n"
      "    {\"name\": \"send\"},\n"
      "    {\"name\": oops}\n"
      "  ]\n"
      "}\n";
  const std::string what = parse_error(text);
  EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  EXPECT_NE(what.find("column 14"), std::string::npos) << what;
  EXPECT_EQ(what.find("byte"), std::string::npos) << what;
}

TEST(Json, ErrorOnFirstLineIsColumnAccurate) {
  const std::string what = parse_error("[1, 2, }");
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  EXPECT_NE(what.find("column 8"), std::string::npos) << what;
}

TEST(Json, TrailingGarbageNamesItsPosition) {
  const std::string what = parse_error("{}\n{}");
  EXPECT_NE(what.find("trailing characters"), std::string::npos) << what;
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
}

TEST(Json, UnterminatedStringPointsPastTheOpeningQuote) {
  const std::string what = parse_error("{\"key\": \"value");
  EXPECT_NE(what.find("unterminated string"), std::string::npos) << what;
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
}

TEST(Json, NestingDeeperThanTheLimitFailsWithAPosition) {
  // The parser recurses once per level, so two million '[' must be cut off
  // by the limit before they exhaust the stack.
  const std::string what = parse_error(std::string(2'000'000, '['));
  EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
  EXPECT_NE(what.find("line 1, column " +
                      std::to_string(u::kMaxJsonDepth + 1)),
            std::string::npos)
      << what;
  // Exactly at the limit still parses.
  const std::string deepest = std::string(u::kMaxJsonDepth, '[') +
                              std::string(u::kMaxJsonDepth, ']');
  EXPECT_NO_THROW((void)u::JsonValue::parse(deepest));
}

TEST(Json, IntegersAreExactFromTheirSourceText) {
  // 2^53 + 1 and the 64-bit extremes have no exact double.
  const u::JsonValue doc = u::JsonValue::parse(
      R"([9007199254740993, 9223372036854775807, -9223372036854775808,
          18446744073709551615, 2.9, -2.9, 1e3, -1])");
  EXPECT_EQ(doc.at(0).as_int(), 9007199254740993LL);
  EXPECT_EQ(doc.at(0).as_uint(), 9007199254740993ULL);
  EXPECT_EQ(doc.at(1).as_int(), INT64_MAX);
  EXPECT_EQ(doc.at(2).as_int(), INT64_MIN);
  EXPECT_EQ(doc.at(3).as_uint(), UINT64_MAX);
  EXPECT_THROW((void)doc.at(3).as_int(), std::runtime_error);
  // Non-integer text keeps the truncating path.
  EXPECT_EQ(doc.at(4).as_int(), 2);
  EXPECT_EQ(doc.at(5).as_int(), -2);
  EXPECT_EQ(doc.at(6).as_uint(), 1000u);
  EXPECT_THROW((void)doc.at(7).as_uint(), std::runtime_error);
}
