#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/json_parser.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace ru = reasched::util;

TEST(JsonParser, Scalars) {
  EXPECT_TRUE(ru::parse_json("null").is_null());
  EXPECT_TRUE(ru::parse_json("true").as_bool());
  EXPECT_FALSE(ru::parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(ru::parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(ru::parse_json("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(ru::parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParser, NestedDocument) {
  const auto doc = ru::parse_json(R"({
    "model": "claude-3-7-sonnet",
    "usage": {"input_tokens": 1200, "output_tokens": 350},
    "content": [{"type": "text", "text": "Thought: ...\nAction: Delay"}],
    "stop": null,
    "ok": true
  })");
  EXPECT_EQ(doc.at("model").as_string(), "claude-3-7-sonnet");
  EXPECT_DOUBLE_EQ(doc.at("usage").at("input_tokens").as_number(), 1200.0);
  EXPECT_EQ(doc.at("content").at(std::size_t{0}).at("text").as_string(),
            "Thought: ...\nAction: Delay");
  EXPECT_TRUE(doc.at("stop").is_null());
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("content").size(), 1u);
}

TEST(JsonParser, StringEscapes) {
  EXPECT_EQ(ru::parse_json(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(ru::parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(ru::parse_json(R"("中")").as_string(), "\xe4\xb8\xad");
}

TEST(JsonParser, EmptyContainers) {
  EXPECT_EQ(ru::parse_json("{}").size(), 0u);
  EXPECT_EQ(ru::parse_json("[]").size(), 0u);
  EXPECT_EQ(ru::parse_json("[[], {}]").size(), 2u);
}

TEST(JsonParser, WhitespaceTolerant) {
  const auto doc = ru::parse_json("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  EXPECT_EQ(doc.at("a").size(), 2u);
}

TEST(JsonParser, Errors) {
  EXPECT_THROW(ru::parse_json(""), std::runtime_error);
  EXPECT_THROW(ru::parse_json("{"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("tru"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("1.2.3"), std::runtime_error);
  EXPECT_THROW(ru::parse_json("\"bad \\q escape\""), std::runtime_error);
}

TEST(JsonParser, NestingDepthIsBounded) {
  // kMaxJsonDepth containers parse; one more is refused with a named error
  // instead of recursing until the stack overflows.
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(ru::parse_json(nested(ru::kMaxJsonDepth)).size(), 1u);
  EXPECT_THROW(ru::parse_json(nested(ru::kMaxJsonDepth + 1)), std::runtime_error);
  EXPECT_THROW(ru::parse_json(std::string(50000, '[')), std::runtime_error);
  std::string objects;
  for (std::size_t i = 0; i <= ru::kMaxJsonDepth; ++i) objects += "{\"a\":";
  try {
    ru::parse_json(objects + "1" + std::string(ru::kMaxJsonDepth + 1, '}'));
    ADD_FAILURE() << "65 nested objects accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 levels"), std::string::npos)
        << e.what();
  }
}

TEST(JsonParser, TypeMismatchThrows) {
  const auto doc = ru::parse_json("{\"a\": 1}");
  EXPECT_THROW(doc.at("a").as_string(), std::runtime_error);
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
  EXPECT_THROW(doc.at(std::size_t{0}), std::runtime_error);
  EXPECT_THROW(ru::parse_json("5").size(), std::runtime_error);
}

TEST(JsonParser, FallbackAccessors) {
  const auto doc = ru::parse_json("{\"name\": \"x\", \"n\": 5, \"weird\": []}");
  EXPECT_EQ(doc.string_or("name", "d"), "x");
  EXPECT_EQ(doc.string_or("missing", "d"), "d");
  EXPECT_EQ(doc.string_or("weird", "d"), "d");  // wrong type -> fallback
  ASSERT_NE(doc.find("n"), nullptr);
  EXPECT_DOUBLE_EQ(doc.find("n")->as_number(), 5.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(ru::parse_json("[1]").find("n"), nullptr);  // not an object
}

TEST(JsonParser, ExactIntRejectsFractionsAndOutOfRange) {
  EXPECT_EQ(ru::parse_json("-7").exact_int(), -7);
  EXPECT_EQ(ru::parse_json("2147483647").exact_int(), 2147483647);
  EXPECT_EQ(ru::parse_json("-2147483648").exact_int(), std::numeric_limits<int>::min());
  EXPECT_FALSE(ru::parse_json("2147483648").exact_int().has_value());
  EXPECT_FALSE(ru::parse_json("-2147483649").exact_int().has_value());
  EXPECT_FALSE(ru::parse_json("1e300").exact_int().has_value());
  EXPECT_FALSE(ru::parse_json("-1e300").exact_int().has_value());
  EXPECT_FALSE(ru::parse_json("2.5").exact_int().has_value());
  EXPECT_FALSE(ru::parse_json("\"3\"").exact_int().has_value());
}

// Round-trip property: anything the JsonWriter emits, the parser reads back.
class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, WriterOutputParses) {
  ru::Rng rng(GetParam());
  ru::JsonWriter w;
  w.begin_object();
  const int fields = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<std::string> keys;
  for (int i = 0; i < fields; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    keys.push_back(key);
    switch (rng.uniform_int(0, 3)) {
      case 0: w.kv(key, rng.uniform_real(-1e6, 1e6)); break;
      case 1: {
        std::string value = "value with \"quotes\" and\nnewlines\t";
        value += std::to_string(i);
        w.kv(key, value);
        break;
      }
      case 2: w.kv(key, rng.bernoulli(0.5)); break;
      default:
        w.key(key).begin_array();
        for (int j = 0; j < 3; ++j) w.value(static_cast<long long>(j));
        w.end_array();
    }
  }
  w.end_object();
  const auto doc = ru::parse_json(w.str());
  EXPECT_EQ(doc.size(), static_cast<std::size_t>(fields));
  for (const auto& key : keys) EXPECT_TRUE(doc.contains(key));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip, ::testing::Range<std::uint64_t>(0, 20));
