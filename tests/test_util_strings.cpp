#include "util/string_utils.hpp"

#include <gtest/gtest.h>

namespace ru = reasched::util;

TEST(Strings, Trim) {
  EXPECT_EQ(ru::trim("  hello  "), "hello");
  EXPECT_EQ(ru::trim("\t\r\n x \n"), "x");
  EXPECT_EQ(ru::trim(""), "");
  EXPECT_EQ(ru::trim("   "), "");
  EXPECT_EQ(ru::trim("no-trim"), "no-trim");
}

TEST(Strings, Split) {
  EXPECT_EQ(ru::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ru::split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(ru::split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(ru::split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitLinesHandlesCrlf) {
  const auto lines = ru::split_lines("one\r\ntwo\nthree\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(lines[2], "three");
}

TEST(Strings, SplitLinesNoTrailingNewline) {
  const auto lines = ru::split_lines("a\nb");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "b");
}

TEST(Strings, CaseHelpers) {
  EXPECT_EQ(ru::to_lower("StartJob"), "startjob");
  EXPECT_TRUE(ru::starts_with_icase("StartJob(5)", "startjob"));
  EXPECT_FALSE(ru::starts_with_icase("Start", "startjob"));
}

TEST(Strings, ParseIntStrict) {
  EXPECT_EQ(ru::parse_int("42").value(), 42);
  EXPECT_EQ(ru::parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(ru::parse_int("42x").has_value());
  EXPECT_FALSE(ru::parse_int("").has_value());
  EXPECT_FALSE(ru::parse_int("  ").has_value());
  EXPECT_FALSE(ru::parse_int("3.14").has_value());
}

TEST(Strings, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(ru::parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ru::parse_double("-2e3").value(), -2000.0);
  EXPECT_FALSE(ru::parse_double("1.2.3").has_value());
  EXPECT_FALSE(ru::parse_double("abc").has_value());
}

TEST(Strings, Format) {
  EXPECT_EQ(ru::format("Job %d: %.1f GB", 7, 2.5), "Job 7: 2.5 GB");
  EXPECT_EQ(ru::format("%s", ""), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(ru::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(ru::join({}, ","), "");
  EXPECT_EQ(ru::join({"solo"}, ","), "solo");
}
