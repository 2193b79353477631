#include <gtest/gtest.h>

#include "core/action_parser.hpp"

namespace rc = reasched::core;
namespace rs = reasched::sim;

struct ParseCase {
  const char* name;
  const char* text;
  bool should_parse;
  rs::Action expected;
};

// Without a printer gtest names each case by the struct's raw bytes, which
// hold ASLR-dependent pointers and padding, so the listed test names (and the
// CTest names discovered from them) changed on every build.
void PrintTo(const ParseCase& c, std::ostream* os) { *os << c.name; }

class ParserTable : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParserTable, ParsesAsExpected) {
  const auto& p = GetParam();
  const auto out = rc::parse_response(p.text);
  if (p.should_parse) {
    ASSERT_TRUE(out.action.has_value()) << out.error;
    EXPECT_EQ(*out.action, p.expected);
  } else {
    EXPECT_FALSE(out.action.has_value());
    EXPECT_FALSE(out.error.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formats, ParserTable,
    ::testing::Values(
        ParseCase{"canonical", "Thought: run it\nAction: StartJob(job_id=9)", true,
                  rs::Action::start(9)},
        ParseCase{"backfill", "Thought: opportunistic\nAction: BackfillJob(job_id=40)", true,
                  rs::Action::backfill(40)},
        ParseCase{"delay", "Thought: nothing fits\nAction: Delay", true, rs::Action::delay()},
        ParseCase{"stop", "Thought: all done\nAction: Stop", true, rs::Action::stop()},
        ParseCase{"bare_id_form", "Action: StartJob(12)", true, rs::Action::start(12)},
        ParseCase{"snake_case", "Action: start_job(job_id=3)", true, rs::Action::start(3)},
        ParseCase{"snake_backfill", "action: backfill_job(7)", true, rs::Action::backfill(7)},
        ParseCase{"case_insensitive", "ACTION: DELAY", true, rs::Action::delay()},
        ParseCase{"markdown_bullets", "Thought: hmm\n* Action: StartJob(job_id=5)", true,
                  rs::Action::start(5)},
        ParseCase{"backticks", "Action: `Stop`", true, rs::Action::stop()},
        ParseCase{"whitespace", "  Action:    StartJob( job_id = 21 )  ", true,
                  rs::Action::start(21)},
        ParseCase{"bare_response", "StartJob(job_id=2)", true, rs::Action::start(2)},
        ParseCase{"last_action_wins",
                  "Thought: maybe StartJob(1)?\nAction: StartJob(job_id=1)\n"
                  "Action: Delay",
                  true, rs::Action::delay()},
        ParseCase{"stop_trailing_prose", "Action: Stop (when all jobs have been scheduled)",
                  true, rs::Action::stop()},
        ParseCase{"no_action_line", "Thought: I am lost and never act.", false, {}},
        ParseCase{"unknown_verb", "Action: LaunchRocket(job_id=1)", false, {}},
        ParseCase{"missing_id", "Action: StartJob()", false, {}},
        ParseCase{"zero_id", "Action: StartJob(job_id=0)", false, {}},
        ParseCase{"empty_text", "", false, {}},
        ParseCase{"gibberish", "%%%###", false, {}}),
    [](const ::testing::TestParamInfo<ParseCase>& param_info) {
      return param_info.param.name;
    });

TEST(Parser, ExtractsMultiLineThought) {
  const auto out = rc::parse_response(
      "Thought: line one\nline two continues\nAction: Delay");
  ASSERT_TRUE(out.action.has_value());
  EXPECT_NE(out.thought.find("line one"), std::string::npos);
  EXPECT_NE(out.thought.find("line two continues"), std::string::npos);
  // The action line itself is not part of the thought.
  EXPECT_EQ(out.thought.find("Action:"), std::string::npos);
}

TEST(Parser, ThoughtOptional) {
  const auto out = rc::parse_response("Action: Stop");
  ASSERT_TRUE(out.action.has_value());
  EXPECT_TRUE(out.thought.empty());
}

TEST(Parser, ErrorMessagesAreDiagnostic) {
  EXPECT_NE(rc::parse_response("Thought: only").error.find("Action"), std::string::npos);
  EXPECT_NE(rc::parse_response("Action: FlyAway").error.find("unrecognized"),
            std::string::npos);
  EXPECT_NE(rc::parse_response("Action: StartJob()").error.find("job id"),
            std::string::npos);
}
