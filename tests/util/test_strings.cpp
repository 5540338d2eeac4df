// Unit tests for the string utilities underpinning the registry parser.
#include "src/util/strings.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace u = mph::util;

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(u::trim("  hello  "), "hello");
  EXPECT_EQ(u::trim("\t\r\nocean\n"), "ocean");
  EXPECT_EQ(u::trim("atmosphere"), "atmosphere");
}

TEST(Trim, EmptyAndAllWhitespace) {
  EXPECT_EQ(u::trim(""), "");
  EXPECT_EQ(u::trim("   \t  "), "");
}

TEST(Trim, PreservesInteriorWhitespace) {
  EXPECT_EQ(u::trim("  a b  "), "a b");
}

TEST(SplitWs, BasicTokens) {
  const auto tokens = u::split_ws("atmosphere 0 15");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "atmosphere");
  EXPECT_EQ(tokens[1], "0");
  EXPECT_EQ(tokens[2], "15");
}

TEST(SplitWs, CollapsesRuns) {
  const auto tokens = u::split_ws("  ocean \t 16   31  ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "ocean");
}

TEST(SplitWs, EmptyInputGivesNoTokens) {
  EXPECT_TRUE(u::split_ws("").empty());
  EXPECT_TRUE(u::split_ws("   ").empty());
}

TEST(Split, PreservesEmptyFields) {
  const auto fields = u::split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Split, TrailingDelimiter) {
  const auto fields = u::split("a,b,", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[2], "");
}

TEST(StripComment, FortranBang) {
  EXPECT_EQ(u::strip_comment("coupler   ! a single-comp exec"),
            "coupler   ");
}

TEST(StripComment, HashStyle) {
  EXPECT_EQ(u::strip_comment("ocean 0 15 # note"), "ocean 0 15 ");
}

TEST(StripComment, NoComment) {
  EXPECT_EQ(u::strip_comment("atmosphere 0 15"), "atmosphere 0 15");
}

TEST(StripComment, WholeLineComment) {
  EXPECT_EQ(u::trim(u::strip_comment("! only a comment")), "");
}

TEST(IEquals, CaseInsensitive) {
  EXPECT_TRUE(u::iequals("BEGIN", "begin"));
  EXPECT_TRUE(u::iequals("Multi_Component_Begin", "MULTI_COMPONENT_BEGIN"));
  EXPECT_FALSE(u::iequals("BEGIN", "BEGIN "));
  EXPECT_FALSE(u::iequals("ocean", "ocear"));
}

TEST(ParseInt, ValidValues) {
  EXPECT_EQ(u::parse_int("0"), 0);
  EXPECT_EQ(u::parse_int("15"), 15);
  EXPECT_EQ(u::parse_int("-3"), -3);
  EXPECT_EQ(u::parse_int("  42  "), 42);
}

TEST(ParseInt, RejectsGarbage) {
  EXPECT_FALSE(u::parse_int("").has_value());
  EXPECT_FALSE(u::parse_int("12a").has_value());
  EXPECT_FALSE(u::parse_int("a12").has_value());
  EXPECT_FALSE(u::parse_int("1.5").has_value());
  EXPECT_FALSE(u::parse_int("1 2").has_value());
}

TEST(ParseUint, FullSixtyFourBitsButNoSign) {
  EXPECT_EQ(u::parse_uint("18446744073709551615"), 18446744073709551615ULL);
  EXPECT_FALSE(u::parse_uint("18446744073709551616").has_value());
  EXPECT_FALSE(u::parse_uint("-1").has_value());
  EXPECT_FALSE(u::parse_uint("+1").has_value());
  EXPECT_FALSE(u::parse_uint("2x").has_value());
}

TEST(ParseFlagUint, ValueOutsideItsRangeNamesTheFlag) {
  EXPECT_EQ(u::parse_flag_uint("--top", "3", 1, 10), 3u);
  try {
    (void)u::parse_flag_uint("--top", "0", 1, 10);
    ADD_FAILURE() << "0 accepted for a flag whose minimum is 1";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--top expects an integer in 1..10, got '0'");
  }
  EXPECT_THROW((void)u::parse_flag_uint("--seed", "-1"),
               std::invalid_argument);
}

TEST(OptionTokens, CommaAndSpaceSeparatedKeyValueList) {
  const std::vector<u::OptionToken> tokens =
      u::option_tokens(" on,capacity=512  dir=a=b,,nosocket ");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].key, "on");
  EXPECT_FALSE(tokens[0].value.has_value());
  EXPECT_EQ(tokens[1].key, "capacity");
  EXPECT_EQ(tokens[1].value, "512");
  EXPECT_EQ(tokens[2].key, "dir");
  EXPECT_EQ(tokens[2].value, "a=b");
  EXPECT_EQ(tokens[3].key, "nosocket");
  EXPECT_TRUE(u::option_tokens("").empty());
}

TEST(ReadFile, WholeContentsOrNothing) {
  const std::string path = ::testing::TempDir() + "mph_read_file_" +
                           std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string("a\0b\r\nc", 6);
  }
  EXPECT_EQ(u::read_file(path), std::string("a\0b\r\nc", 6));
  std::remove(path.c_str());
  EXPECT_FALSE(u::read_file(path).has_value());
}

TEST(WriteFile, RoundTripsAndFailsLoudly) {
  const std::string path = ::testing::TempDir() + "mph_write_file_" +
                           std::to_string(::getpid()) + ".txt";
  u::write_file(path, std::string("a\0b\r\nc", 6));
  EXPECT_EQ(u::read_file(path), std::string("a\0b\r\nc", 6));
  std::remove(path.c_str());
  // The open succeeds and the flush fails: a full disk must not pass.
  try {
    u::write_file("/dev/full", "text");
    ADD_FAILURE() << "writing /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cannot write '/dev/full'");
  }
  EXPECT_THROW(u::write_file(::testing::TempDir() + "no/such/dir/x", "x"),
               std::runtime_error);
}

TEST(ParseDouble, ValidValues) {
  EXPECT_DOUBLE_EQ(u::parse_double("4.5").value(), 4.5);
  EXPECT_DOUBLE_EQ(u::parse_double("-0.25").value(), -0.25);
  EXPECT_DOUBLE_EQ(u::parse_double("3").value(), 3.0);
  EXPECT_DOUBLE_EQ(u::parse_double("1e3").value(), 1000.0);
}

TEST(ParseDouble, RejectsGarbage) {
  EXPECT_FALSE(u::parse_double("").has_value());
  EXPECT_FALSE(u::parse_double("4.5x").has_value());
  EXPECT_FALSE(u::parse_double("finite_volume").has_value());
}

TEST(ParseBool, PaperSpellings) {
  // The paper's example uses debug=on / debug=off.
  EXPECT_EQ(u::parse_bool("on"), true);
  EXPECT_EQ(u::parse_bool("off"), false);
  EXPECT_EQ(u::parse_bool("TRUE"), true);
  EXPECT_EQ(u::parse_bool("False"), false);
  EXPECT_EQ(u::parse_bool("yes"), true);
  EXPECT_EQ(u::parse_bool("no"), false);
  EXPECT_EQ(u::parse_bool("1"), true);
  EXPECT_EQ(u::parse_bool("0"), false);
  EXPECT_FALSE(u::parse_bool("maybe").has_value());
}

TEST(SplitKeyValue, Basics) {
  const auto kv = u::split_key_value("alpha=3");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->first, "alpha");
  EXPECT_EQ(kv->second, "3");
}

TEST(SplitKeyValue, EmptyValueAllowed) {
  const auto kv = u::split_key_value("flag=");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->first, "flag");
  EXPECT_EQ(kv->second, "");
}

TEST(SplitKeyValue, RejectsPositionalAndEmptyKey) {
  EXPECT_FALSE(u::split_key_value("infile3").has_value());
  EXPECT_FALSE(u::split_key_value("=value").has_value());
}

TEST(SplitKeyValue, ValueMayContainEquals) {
  const auto kv = u::split_key_value("expr=a=b");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->first, "expr");
  EXPECT_EQ(kv->second, "a=b");
}

TEST(ValidComponentName, AcceptsPaperNames) {
  for (const char* name : {"atmosphere", "ocean", "NCAR_atm", "UCLA_atm",
                           "Ocean1", "coupler", "land-surface"}) {
    EXPECT_TRUE(u::valid_component_name(name)) << name;
  }
}

TEST(ValidComponentName, RejectsKeywordsAndMalformed) {
  for (const char* name :
       {"", "BEGIN", "end", "Multi_Component_Begin", "multi_instance_end",
        "has space", "key=value", "with!bang"}) {
    EXPECT_FALSE(u::valid_component_name(name)) << name;
  }
}

TEST(Join, Basic) {
  EXPECT_EQ(u::join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(u::join({}, ","), "");
  EXPECT_EQ(u::join({"solo"}, ","), "solo");
}

TEST(StartsWith, Basic) {
  EXPECT_TRUE(u::starts_with("Ocean1", "Ocean"));
  EXPECT_FALSE(u::starts_with("ocean1", "Ocean"));
  EXPECT_FALSE(u::starts_with("Oce", "Ocean"));
  EXPECT_TRUE(u::starts_with("anything", ""));
}
