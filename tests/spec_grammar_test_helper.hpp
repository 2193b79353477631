#pragma once

// Shared spec-grammar test coverage for the two string-keyed axes
// (harness::MethodSpec, workload::ScenarioSpec). Both parsers sit on
// util/spec_grammar, so the edge cases - percent-encoding, duplicate keys,
// invalid characters, round-trip canonicalization - are exercised through
// one helper, parameterized over the axis's parse/serialize functions (both
// throw util::SpecError). Each axis's test file instantiates this against its own
// types; axis-specific grammar (pipelines, mix) stays in the axis's file.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <typeinfo>
#include <vector>

namespace reasched::testing {

/// Run `fn`, expect it to throw `Error`, and require the message to mention
/// every fragment - actionable errors must name the offending token.
template <typename Error, typename Fn>
void expect_spec_error(Fn&& fn, const std::vector<std::string>& fragments) {
  try {
    fn();
    FAIL() << "expected " << typeid(Error).name();
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const auto& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "error message '" << what << "' should mention '" << fragment << "'";
    }
  }
}

/// One axis's grammar surface, type-erased for the shared cases below.
struct SpecGrammarApi {
  /// Parse a spec string; throws util::SpecError.
  std::function<void(const std::string&)> parse_ok;
  /// Parse and return the canonical to_string().
  std::function<std::string(const std::string&)> canonical;
  /// Parse and return the decoded value of `key` on the first stage.
  std::function<std::string(const std::string& spec, const std::string& key)> param_value;
  /// Run parse, mapping util::SpecError into a caught-or-not bool.
  std::function<bool(const std::string&)> parse_fails;
};

/// The grammar cases every spec axis must satisfy identically.
inline void run_shared_grammar_cases(const SpecGrammarApi& api, const std::string& name) {
  SCOPED_TRACE("axis: " + name);

  // Round-trip canonicalization: keys sort, whitespace trims, parse of the
  // canonical form is a fixed point.
  EXPECT_EQ(api.canonical("  " + name + " \n"), name);
  EXPECT_EQ(api.canonical(name + "?zz=1&aa=2"), name + "?aa=2&zz=1");
  EXPECT_EQ(api.canonical(api.canonical(name + "?zz=1&aa=2")), name + "?aa=2&zz=1");

  // Percent-encoding: reserved characters in values decode on parse and
  // re-encode canonically, so values containing separators survive.
  EXPECT_EQ(api.param_value(name + "?k=a%26b", "k"), "a&b");
  EXPECT_EQ(api.param_value(name + "?k=a%3db", "k"), "a=b");
  EXPECT_EQ(api.param_value(name + "?k=50%25", "k"), "50%");
  EXPECT_EQ(api.param_value(name + "?k=a%7cb", "k"), "a|b");
  EXPECT_EQ(api.canonical(name + "?k=a%26b"), name + "?k=a%26b");
  // Unreserved characters pass through both directions unencoded.
  EXPECT_EQ(api.param_value(name + "?k=sjf:64", "k"), "sjf:64");
  EXPECT_EQ(api.canonical(name + "?k=sjf:64"), name + "?k=sjf:64");
  // Malformed escapes are grammar errors, not silent data.
  EXPECT_TRUE(api.parse_fails(name + "?k=bad%2"));
  EXPECT_TRUE(api.parse_fails(name + "?k=bad%zz"));

  // Duplicate keys, empty/ill-formed parameter bags, invalid characters.
  EXPECT_TRUE(api.parse_fails(""));
  EXPECT_TRUE(api.parse_fails("?k=1"));
  EXPECT_TRUE(api.parse_fails(name + "?"));
  EXPECT_TRUE(api.parse_fails(name + "?k"));
  EXPECT_TRUE(api.parse_fails(name + "?=1"));
  EXPECT_TRUE(api.parse_fails(name + "?k="));
  EXPECT_TRUE(api.parse_fails(name + "?k=1&k=2"));
  EXPECT_TRUE(api.parse_fails(name + "?bad-key=1"));
  EXPECT_TRUE(api.parse_fails("UPPER"));
}

}  // namespace reasched::testing
