#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "service/session.hpp"

namespace rsvc = reasched::service;

// ---------------------------------------------------------------------------
// Service loop over a scripted protocol session.
// ---------------------------------------------------------------------------

namespace {

rsvc::ServiceConfig fcfs_config(std::uint64_t seed = 5) {
  rsvc::ServiceConfig config;
  config.method = "fcfs";
  config.seed = seed;
  return config;
}

}  // namespace

TEST(ServiceLoop, ScriptedSessionProducesOneResponsePerRequest) {
  rsvc::ServiceEngine engine(fcfs_config());
  std::istringstream in(
      "{\"op\":\"submit\",\"job\":{\"duration\":60,\"nodes\":4}}\n"
      "{\"op\":\"submit\",\"job\":{\"duration\":30,\"nodes\":2}}\n"
      "\n"  // blank lines are ignored, not errors
      "{\"op\":\"query\"}\n"
      "{\"op\":\"advance\",\"to\":100}\n"
      "{\"op\":\"cancel\",\"id\":77}\n"  // unknown id: error line, keep serving
      "{\"op\":\"drain\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"query\"}\n");  // after shutdown: never read
  std::ostringstream out;
  const rsvc::LoopStats stats = rsvc::run_service_loop(engine, in, out);
  EXPECT_EQ(stats.n_requests, 7u);
  EXPECT_EQ(stats.n_errors, 1u);
  EXPECT_TRUE(stats.shutdown);

  std::vector<std::string> lines;
  std::istringstream replies(out.str());
  for (std::string line; std::getline(replies, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0], "{\"ok\":true,\"op\":\"submit\",\"id\":1}");
  EXPECT_EQ(lines[1], "{\"ok\":true,\"op\":\"submit\",\"id\":2}");
  EXPECT_EQ(lines[4].rfind("{\"ok\":false", 0), 0u);
  EXPECT_EQ(lines[6], "{\"ok\":true,\"op\":\"shutdown\"}");
}

TEST(ServiceLoop, MalformedLinesBecomeErrorsNotCrashes) {
  rsvc::ServiceEngine engine(fcfs_config());
  std::istringstream in(
      "this is not json\n"
      "{\"op\":\"warp\"}\n"
      "{\"op\":\"submit\",\"job\":{\"duration\":60,\"nodes\":4}}\n");
  std::ostringstream out;
  const rsvc::LoopStats stats = rsvc::run_service_loop(engine, in, out);
  EXPECT_EQ(stats.n_requests, 3u);
  EXPECT_EQ(stats.n_errors, 2u);
  EXPECT_FALSE(stats.shutdown);  // ended by EOF
  EXPECT_EQ(engine.status().n_buffered, 1u);  // the valid submit landed
}
